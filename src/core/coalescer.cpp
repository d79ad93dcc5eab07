#include "core/coalescer.hpp"

#include <algorithm>
#include <cassert>

#include "aba/aba.hpp"
#include "coin/coin.hpp"

namespace svss {

namespace {

using Acc = Coalescer::Acc;
using Entry = Coalescer::Entry;

// Which layer a row frames: selects the enable flag, the sid space of its
// envelopes, and its place in the flush order.
enum class Layer : std::uint8_t { kMw, kCoin, kVote };
// Where an RB row's per-(group, row) flush sequence goes on the wire.
enum class Seq : std::uint8_t { kNone, kInA, kInCounter };

// Read position inside one envelope.  `index` counts entries; for
// complete-group rows it is the entry's attachee.
struct Cursor {
  explicit Cursor(const Message& m) : env(m), blob(m.blob) {}
  [[nodiscard]] bool has_ints(std::size_t k) const {
    return ints + k <= env.ints.size();
  }
  [[nodiscard]] bool has_vals(std::size_t k) const {
    return vals + k <= env.vals.size();
  }
  int take_int() { return env.ints[ints++]; }
  // Copy the next `len` ints / values into the entry's sub-message.
  void take_run(Entry& e, std::size_t len) {
    e.ints_at = ints;
    auto first = env.ints.begin() + static_cast<std::ptrdiff_t>(ints);
    e.sub.ints.assign(first, first + static_cast<std::ptrdiff_t>(len));
    ints += len;
  }
  void take_vals(Entry& e, std::size_t len) {
    e.vals_at = vals;
    auto first = env.vals.begin() + static_cast<std::ptrdiff_t>(vals);
    e.sub.vals.assign(first, first + static_cast<std::ptrdiff_t>(len));
    vals += len;
  }

  const Message& env;
  std::size_t ints = 0;
  std::size_t vals = 0;
  Reader blob;
  int index = 0;
};

struct Row;
using TakesFn = bool (*)(const Message& m, int self, int n);
using EncodeFn = void (*)(Acc& acc, const Message& sub);
// Decodes the entry at the cursor into e.sub (sid included) and sets `key`
// to a per-envelope duplicate key (-1: duplicates allowed).
using DecodeFn = bool (*)(const Row& row, Cursor& c, int n, int t, Entry& e,
                          int& key);
// The per-session message of an envelope holding one entry, for rows whose
// lone entry goes out plain (nullptr: always an envelope).
using PlainFn = Message (*)(const Acc& acc);

struct Row {
  MsgType envelope;
  Layer layer;
  bool rb;          // transport class of the envelope
  bool complete;    // complete-group flush rule, else cascade
  Seq seq;
  int slot;                   // index among the layer's RB rows
  int header;                 // ints that open each entry (0: fixed n)
  std::array<MsgType, 5> takes;  // per-session types; kTestPayload = none
  TakesFn accepts;            // shape check beyond the type
  EncodeFn encode;
  DecodeFn decode;
  PlainFn plain;
};

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------
int attachee_of(const SessionId& sid) {
  return static_cast<int>(sid.counter % kMaxN);
}
bool valid_j(int j, int n) { return j >= 0 && j < n; }

SessionId group_sid(Layer layer, const SessionId& child) {
  switch (layer) {
    case Layer::kMw: {
      // The child id space with variant 2 + v at the attachee-0 slot.
      SessionId g = child;
      g.variant = static_cast<std::uint8_t>(2 + child.variant);
      g.counter = (child.counter / kMaxN) * kMaxN;
      return g;
    }
    case Layer::kCoin: {
      // The attachee-0 slot of (instance, round, dealer) with variant 1.
      SessionId g;
      g.path = SessionPath::kSvssCoin;
      g.variant = 1;
      g.owner = child.owner;
      g.counter = (child.counter / kMaxN) * kMaxN;
      g.instance = child.instance;
      return g;
    }
    case Layer::kVote:
      break;
  }
  // One vote group per node, in the reserved variant-4 space.
  return SessionId{SessionPath::kAba, 4, -1, -1, -1, 0, 0};
}

bool envelope_sid_ok(const Row& row, const SessionId& s) {
  switch (row.layer) {
    case Layer::kMw:
      return s.path == SessionPath::kMwInSvssCoin &&
             (s.variant == 2 || s.variant == 3) && s.counter % kMaxN == 0;
    case Layer::kCoin:
      return s.path == SessionPath::kSvssCoin && s.variant == 1 &&
             s.counter % kMaxN == 0;
    case Layer::kVote:
      // Direct vote envelopes sit at counter 0; CONF envelopes carry their
      // flush sequence there.
      return s.path == SessionPath::kAba && s.variant == 4 && s.owner == -1 &&
             s.moderator == -1 && s.svss_dealer == -1 && s.instance == 0 &&
             (row.rb || s.counter == 0);
  }
  return false;
}

// ---------------------------------------------------------------------
// MW rows: the n sibling children (attachees) of one coin group.
// ---------------------------------------------------------------------
bool takes_mw(const Message& m, int, int n) {
  return m.sid.path == SessionPath::kMwInSvssCoin && m.sid.variant <= 1 &&
         attachee_of(m.sid) < n;
}
bool takes_mw_recon(const Message& m, int self, int n) {
  return takes_mw(m, self, n) && m.vals.size() == 1;
}

void mw_sub(Cursor& c, Entry& e, int j, MsgType type) {
  e.sub.sid = c.env.sid;
  e.sub.sid.variant = static_cast<std::uint8_t>(c.env.sid.variant - 2);
  e.sub.sid.counter += static_cast<std::uint32_t>(j);
  e.sub.type = type;
}

// The duplicate-key row of each direct sub-type, -1 outside the class.
int mw_direct_slot(int type) {
  switch (type) {
    case static_cast<int>(MsgType::kMwDealerShares): return 0;
    case static_cast<int>(MsgType::kMwDealerPoly): return 1;
    case static_cast<int>(MsgType::kMwDealerWhole): return 2;
    case static_cast<int>(MsgType::kMwEchoVal): return 3;
    case static_cast<int>(MsgType::kMwMonitorVal): return 4;
    default: return -1;
  }
}

// kMwBatchDirect: (type, attachee, value-count) triples; values in vals.
void encode_mw_direct(Acc& acc, const Message& m) {
  acc.ints.push_back(static_cast<int>(m.type));
  acc.ints.push_back(attachee_of(m.sid));
  acc.ints.push_back(static_cast<int>(m.vals.size()));
  acc.vals.insert(acc.vals.end(), m.vals.begin(), m.vals.end());
}
bool decode_mw_direct(const Row&, Cursor& c, int n, int, Entry& e,
                      int& key) {
  if (!c.has_ints(3)) return false;
  int type = c.take_int();
  int j = c.take_int();
  int len = c.take_int();
  int slot = mw_direct_slot(type);
  if (slot < 0 || !valid_j(j, n) || len < 0 ||
      !c.has_vals(static_cast<std::size_t>(len))) {
    return false;
  }
  mw_sub(c, e, j, static_cast<MsgType>(type));
  c.take_vals(e, static_cast<std::size_t>(len));
  key = slot * n + j;
  return true;
}

// kMwBatchAck / kMwBatchOk: the attachee list.
void encode_attachee(Acc& acc, const Message& m) {
  acc.ints.push_back(attachee_of(m.sid));
}
bool decode_attachee(const Row& row, Cursor& c, int n, int, Entry& e,
                     int& key) {
  if (!c.has_ints(1)) return false;
  int j = c.take_int();
  if (!valid_j(j, n)) return false;
  mw_sub(c, e, j, row.takes[0]);
  key = j;
  return true;
}

// kMwBatchLset / kMwBatchMset: (attachee, length, members...) runs.
void encode_run(Acc& acc, const Message& m) {
  acc.ints.push_back(attachee_of(m.sid));
  acc.ints.push_back(static_cast<int>(m.ints.size()));
  acc.ints.insert(acc.ints.end(), m.ints.begin(), m.ints.end());
}
bool decode_run(const Row& row, Cursor& c, int n, int, Entry& e, int& key) {
  if (!c.has_ints(2)) return false;
  int j = c.take_int();
  int len = c.take_int();
  if (!valid_j(j, n) || len < 0 ||
      !c.has_ints(static_cast<std::size_t>(len))) {
    return false;
  }
  mw_sub(c, e, j, row.takes[0]);
  c.take_run(e, static_cast<std::size_t>(len));
  key = j;
  return true;
}

// kMwBatchReconVal: (attachee, monitored poly) pairs, one value each.  A
// duplicate pair across two flushes of a Byzantine sender is caught by the
// session's per-(origin, l) guard.
void encode_recon(Acc& acc, const Message& m) {
  acc.ints.push_back(attachee_of(m.sid));
  acc.ints.push_back(m.a);
  acc.vals.push_back(m.vals[0]);
}
bool decode_recon(const Row&, Cursor& c, int n, int, Entry& e, int& key) {
  if (!c.has_ints(2) || !c.has_vals(1)) return false;
  int j = c.take_int();
  int l = c.take_int();
  if (!valid_j(j, n) || !valid_j(l, n)) return false;
  mw_sub(c, e, j, MsgType::kMwReconVal);
  e.sub.a = static_cast<std::int16_t>(l);
  c.take_vals(e, 1);
  key = j * n + l;
  return true;
}

// ---------------------------------------------------------------------
// Coin rows: the n sessions one dealer deals per (instance, round).
// ---------------------------------------------------------------------
bool takes_coin(const Message& m, int self, int n) {
  return m.sid.path == SessionPath::kSvssCoin && m.sid.owner == self &&
         attachee_of(m.sid) < n;
}

void coin_sub(Cursor& c, Entry& e, MsgType type) {
  e.sub.sid = coin_svss_id(c.env.sid.counter / kMaxN, c.env.sid.owner,
                           c.index, c.env.sid.instance);
  e.sub.type = type;
}

// kSvssBatchShares: n share vectors of 2(t+1) values, attachee order.
void encode_shares(Acc& acc, const Message& m) {
  acc.vals.insert(acc.vals.end(), m.vals.begin(), m.vals.end());
}
bool decode_shares(const Row&, Cursor& c, int, int t, Entry& e, int&) {
  auto per = 2 * (static_cast<std::size_t>(t) + 1);
  if (!c.has_vals(per)) return false;
  coin_sub(c, e, MsgType::kSvssDealerShares);
  c.take_vals(e, per);
  return true;
}

// kSvssBatchGset: blob = [int_vec G, bytes {G_j}] per attachee.
void encode_gset(Acc& acc, const Message& m) {
  Writer w;
  w.int_vec(m.ints);
  w.bytes(m.blob);
  const Bytes& part = w.data();
  acc.blob.insert(acc.blob.end(), part.begin(), part.end());
}
bool decode_gset(const Row&, Cursor& c, int n, int, Entry& e, int&) {
  auto ints = c.blob.int_vec(static_cast<std::size_t>(n));
  auto blob = c.blob.bytes();
  if (!ints || !blob) return false;
  coin_sub(c, e, MsgType::kSvssGset);
  e.sub.ints = std::move(*ints);
  e.sub.blob = std::move(*blob);
  return true;
}

// ---------------------------------------------------------------------
// Vote rows: every agreement vote of one cascade, across instances.
// ---------------------------------------------------------------------
constexpr std::uint32_t kMaxRound = kCoinRoundsPerInstance - 1;

bool round_ok(int round) {
  return round >= 1 && static_cast<std::uint32_t>(round) <= kMaxRound;
}
bool direct_subtype(int b) { return b == 0 || b == 1 || b == 3; }

// A well-formed vote in the canonical agreement sid (aba.cpp's aba_sid).
bool vote_shape(const Message& m) {
  const SessionId& s = m.sid;
  return s.path == SessionPath::kAba && s.variant == 0 && s.owner == -1 &&
         s.moderator == -1 && s.svss_dealer == -1 && s.counter == 0 &&
         m.ints.size() == 1 && m.vals.empty() && m.blob.empty() &&
         round_ok(m.a);
}
bool takes_vote(const Message& m, int, int) {
  return vote_shape(m) && direct_subtype(m.b);
}
bool takes_conf(const Message& m, int, int) {
  return vote_shape(m) && m.b == 2;
}

void fill_vote(Message& m, int instance, int round, int subtype, int value) {
  m.sid = SessionId{SessionPath::kAba, 0, -1, -1, -1, 0,
                    static_cast<std::uint32_t>(instance)};
  m.type = MsgType::kAbaVote;
  m.a = static_cast<std::int16_t>(round);
  m.b = static_cast<std::int16_t>(subtype);
  m.ints.push_back(value);
}

// kAbaBatchVote: (instance, round, subtype, value) runs.
void encode_vote(Acc& acc, const Message& m) {
  acc.ints.insert(acc.ints.end(),
                  {static_cast<int>(m.sid.instance), m.a, m.b, m.ints[0]});
}
bool decode_vote(const Row&, Cursor& c, int, int, Entry& e, int&) {
  if (!c.has_ints(4)) return false;
  int instance = c.take_int();
  int round = c.take_int();
  int subtype = c.take_int();
  int value = c.take_int();
  if (instance < 0 || !round_ok(round) || !direct_subtype(subtype)) {
    return false;
  }
  fill_vote(e.sub, instance, round, subtype, value);
  return true;
}
// A lone vote goes out as the kAbaVote it was captured as (any instance id,
// since it skips the receive-side range checks).
Message plain_vote(const Acc& acc) {
  Message m;
  fill_vote(m, acc.ints[0], acc.ints[1], acc.ints[2], acc.ints[3]);
  return m;
}

// kAbaBatchConf: (instance, round, set-code) triples.
void encode_conf(Acc& acc, const Message& m) {
  acc.ints.insert(acc.ints.end(),
                  {static_cast<int>(m.sid.instance), m.a, m.ints[0]});
}
bool decode_conf(const Row&, Cursor& c, int, int, Entry& e, int&) {
  if (!c.has_ints(3)) return false;
  int instance = c.take_int();
  int round = c.take_int();
  int setcode = c.take_int();
  if (instance < 0 || !round_ok(round)) return false;
  fill_vote(e.sub, instance, round, 2, setcode);
  return true;
}
Message plain_conf(const Acc& acc) {
  Message m;
  fill_vote(m, acc.ints[0], acc.ints[1], 2, acc.ints[2]);
  return m;
}

// ---------------------------------------------------------------------
// The rows.  Within a layer the direct row comes first and the RB rows
// follow in flush order.
// ---------------------------------------------------------------------
constexpr MsgType kNone = MsgType::kTestPayload;
constexpr std::array<MsgType, 5> only(MsgType type) {
  return {type, kNone, kNone, kNone, kNone};
}
constexpr std::array<MsgType, 5> kMwDirectTypes{
    MsgType::kMwDealerShares, MsgType::kMwDealerPoly, MsgType::kMwDealerWhole,
    MsgType::kMwEchoVal, MsgType::kMwMonitorVal};

constexpr std::array<Row, 10> kRows{{
    // envelope                 layer         rb     complete  seq
    //   slot header  takes                         accepts, encode, decode,
    //   plain
    {MsgType::kMwBatchDirect,    Layer::kMw,   false, false,    Seq::kNone,
     0, 3, kMwDirectTypes,                  takes_mw, encode_mw_direct,
     decode_mw_direct, nullptr},
    {MsgType::kMwBatchAck,       Layer::kMw,   true,  false,    Seq::kInA,
     0, 1, only(MsgType::kMwAck),           takes_mw, encode_attachee,
     decode_attachee, nullptr},
    {MsgType::kMwBatchLset,      Layer::kMw,   true,  false,    Seq::kInA,
     1, 2, only(MsgType::kMwLset),          takes_mw, encode_run, decode_run,
     nullptr},
    {MsgType::kMwBatchMset,      Layer::kMw,   true,  false,    Seq::kInA,
     2, 2, only(MsgType::kMwMset),          takes_mw, encode_run, decode_run,
     nullptr},
    {MsgType::kMwBatchOk,        Layer::kMw,   true,  false,    Seq::kInA,
     3, 1, only(MsgType::kMwOk),            takes_mw, encode_attachee,
     decode_attachee, nullptr},
    {MsgType::kMwBatchReconVal,  Layer::kMw,   true,  false,    Seq::kInA,
     4, 2, only(MsgType::kMwReconVal),      takes_mw_recon, encode_recon,
     decode_recon, nullptr},
    {MsgType::kSvssBatchShares,  Layer::kCoin, false, true,     Seq::kNone,
     0, 0, only(MsgType::kSvssDealerShares), takes_coin, encode_shares,
     decode_shares, nullptr},
    {MsgType::kSvssBatchGset,    Layer::kCoin, true,  true,     Seq::kNone,
     0, 0, only(MsgType::kSvssGset),        takes_coin, encode_gset,
     decode_gset, nullptr},
    {MsgType::kAbaBatchVote,     Layer::kVote, false, false,    Seq::kNone,
     0, 4, only(MsgType::kAbaVote),         takes_vote, encode_vote,
     decode_vote, plain_vote},
    {MsgType::kAbaBatchConf,     Layer::kVote, true,  false,    Seq::kInCounter,
     0, 3, only(MsgType::kAbaVote),         takes_conf, encode_conf,
     decode_conf, plain_conf},
}};
constexpr int kRowCount = static_cast<int>(kRows.size());

// MsgType -> row lookups: which row an envelope type belongs to, and which
// row takes a per-session type on each transport class.
struct RowIndex {
  std::array<std::int8_t, 256> envelope{};
  std::array<std::array<std::int8_t, 256>, 2> taking{};  // [rb][type]
};
constexpr RowIndex kIndex = [] {
  RowIndex ix;
  ix.envelope.fill(-1);
  for (auto& by_class : ix.taking) by_class.fill(-1);
  for (int r = 0; r < kRowCount; ++r) {
    const Row& row = kRows[static_cast<std::size_t>(r)];
    ix.envelope[static_cast<std::size_t>(row.envelope)] =
        static_cast<std::int8_t>(r);
    for (MsgType type : row.takes) {
      if (type != kNone) {
        ix.taking[row.rb ? 1 : 0][static_cast<std::size_t>(type)] =
            static_cast<std::int8_t>(r);
      }
    }
  }
  return ix;
}();

int envelope_row(MsgType type) {
  return kIndex.envelope[static_cast<std::size_t>(type)];
}
int taking_row(MsgType type, bool rb) {
  return kIndex.taking[rb ? 1 : 0][static_cast<std::size_t>(type)];
}
const Row& row_at(int r) { return kRows[static_cast<std::size_t>(r)]; }

}  // namespace

Coalescer::Coalescer(int self, int n, int t, Rbc& rbc, Layers layers)
    : self_(self), n_(n), t_(t), rbc_(rbc) {
  for (int r = 0; r < kRowCount; ++r) {
    const Layer layer = row_at(r).layer;
    if ((layer == Layer::kMw && layers.mw) ||
        (layer == Layer::kCoin && layers.coin) ||
        (layer == Layer::kVote && layers.votes)) {
      enabled_ |= 1u << r;
    }
  }
}

bool Coalescer::is_envelope(MsgType type) { return envelope_row(type) >= 0; }

// ---------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------
bool Coalescer::open() {
  if (open_) return false;
  open_ = true;
  return true;
}

Coalescer::Group& Coalescer::group_for(int row, const SessionId& gsid) {
  // Consecutive captures mostly come from one session, so the previous
  // capture's group is tried first; a window holds few groups.
  if (last_ < live_ && groups_[last_].gsid == gsid) return groups_[last_];
  for (last_ = 0; last_ < live_; ++last_) {
    if (groups_[last_].gsid == gsid) return groups_[last_];
  }
  if (live_ == groups_.size()) groups_.emplace_back();
  Group& g = groups_[live_++];
  g.gsid = gsid;
  g.layer = static_cast<std::uint8_t>(row_at(row).layer);
  return g;
}

bool Coalescer::capture_direct(Context& ctx, int to, Message& m) {
  const int r = taking_row(m.type, /*rb=*/false);
  if (!enabled(r) || to < 0 || to >= n_) return false;
  const Row& row = row_at(r);
  if ((!row.complete && !open_) || !row.accepts(m, self_, n_)) return false;
  if (row.complete) return capture_complete(ctx, r, to, std::move(m));
  Group& g = group_for(r, group_sid(row.layer, m.sid));
  if (g.direct.empty()) g.direct.resize(static_cast<std::size_t>(n_));
  Acc& acc = g.direct[static_cast<std::size_t>(to)];
  row.encode(acc, m);
  ++acc.count;
  return true;
}

bool Coalescer::capture_broadcast(Context& ctx, const Message& m) {
  const int r = taking_row(m.type, /*rb=*/true);
  if (!enabled(r)) return false;
  const Row& row = row_at(r);
  if ((!row.complete && !open_) || !row.accepts(m, self_, n_)) return false;
  if (row.complete) return capture_complete(ctx, r, -1, Message(m));
  Acc& acc = group_for(r, group_sid(row.layer, m.sid))
                 .rb[static_cast<std::size_t>(row.slot)];
  row.encode(acc, m);
  ++acc.count;
  return true;
}

bool Coalescer::capture_complete(Context& ctx, int row, int to,
                                 Message&& m) {
  const Row& spec = row_at(row);
  const SessionId gsid = group_sid(spec.layer, m.sid);
  auto it = std::find_if(partial_.begin(), partial_.end(),
                         [&](const Partial& p) {
                           return p.row == row && p.to == to && p.gsid == gsid;
                         });
  if (it == partial_.end()) {
    it = partial_.emplace(partial_.end());
    it->row = row;
    it->gsid = gsid;
    it->to = to;
    it->slots.resize(static_cast<std::size_t>(n_));
  }
  const auto j = static_cast<std::size_t>(attachee_of(m.sid));
  // A session sends each of these once; a repeat goes out per-session.
  if (it->filled[j]) return false;
  it->filled[j] = true;
  it->slots[j] = std::move(m);
  if (++it->have < n_) return true;
  Acc acc;
  for (const Message& sibling : it->slots) spec.encode(acc, sibling);
  acc.count = static_cast<std::uint32_t>(n_);
  partial_.erase(it);
  emit(ctx, row, gsid, to, acc);
  return true;
}

void Coalescer::emit(Context& ctx, int row, const SessionId& gsid, int to,
                     Acc& acc) {
  const Row& spec = row_at(row);
  Message env;
  if (spec.plain != nullptr && acc.count == 1) {
    // A lone entry gains nothing from envelope framing: emit its
    // per-session message, so single-instance runs keep that wire image.
    env = spec.plain(acc);
  } else {
    env.sid = gsid;
    env.type = spec.envelope;
    env.ints.assign(acc.ints.begin(), acc.ints.end());
    env.vals.assign(acc.vals.begin(), acc.vals.end());
    env.blob.assign(acc.blob.begin(), acc.blob.end());
    if (spec.seq != Seq::kNone) {
      std::uint32_t& seq =
          flush_seq_[gsid][static_cast<std::size_t>(spec.slot)];
      if (spec.seq == Seq::kInA) {
        env.a = static_cast<std::int16_t>(seq++);
      } else {
        env.sid.counter = seq++;
      }
    }
  }
  acc.ints.clear();
  acc.vals.clear();
  acc.blob.clear();
  acc.count = 0;
  if (spec.rb) {
    rbc_.broadcast(ctx, env);
  } else {
    ctx.send(to, make_direct(std::move(env)));
  }
}

void Coalescer::flush_group(Context& ctx, Group& g) {
  for (int r = 0; r < kRowCount; ++r) {
    const Row& row = row_at(r);
    if (static_cast<std::uint8_t>(row.layer) != g.layer || row.complete) {
      continue;
    }
    if (!row.rb) {
      for (std::size_t to = 0; to < g.direct.size(); ++to) {
        if (g.direct[to].count != 0) {
          emit(ctx, r, g.gsid, static_cast<int>(to), g.direct[to]);
        }
      }
    } else if (Acc& acc = g.rb[static_cast<std::size_t>(row.slot)];
               acc.count != 0) {
      emit(ctx, r, g.gsid, -1, acc);
    }
  }
}

void Coalescer::close(Context& ctx) {
  open_ = false;
  if (live_ != 0) {
    // The vote group first, then the other groups in capture order.
    const auto vote = static_cast<std::uint8_t>(Layer::kVote);
    for (std::size_t i = 0; i < live_; ++i) {
      if (groups_[i].layer == vote) flush_group(ctx, groups_[i]);
    }
    for (std::size_t i = 0; i < live_; ++i) {
      if (groups_[i].layer != vote) flush_group(ctx, groups_[i]);
    }
    live_ = 0;
  }
  assert(framing_only());
}

bool Coalescer::framing_only() const {
  return !open_ && live_ == 0 &&
         std::all_of(partial_.begin(), partial_.end(),
                     [this](const Partial& p) { return p.have < n_; });
}

// ---------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------
bool Coalescer::parse(const Message& env, int n, int t,
                      std::vector<Entry>& out) {
  const int r = envelope_row(env.type);
  if (r < 0) return false;
  const Row& row = row_at(r);
  if (!envelope_sid_ok(row, env.sid)) return false;
  Cursor c(env);
  // One entry per duplicate key: a repeated entry is the Byzantine shape
  // that could double-drive a session.  Keys stay below max(5n, n^2); only
  // those words are cleared, since this runs per delivered envelope.
  std::array<std::uint64_t, kMaxN * kMaxN / 64> seen;
  std::fill_n(seen.begin(), (std::max(5 * n, n * n) + 63) / 64, 0);
  // `out` is overwritten in place, so a caller that keeps it across
  // envelopes reuses its entries' buffers instead of reallocating them.
  std::size_t k = 0;
  auto finish = [&out, &k](bool ok) {
    out.resize(k);
    return ok;
  };
  for (; row.complete ? c.index < n : c.ints < env.ints.size(); ++c.index) {
    if (k == out.size()) out.emplace_back();
    Entry& e = out[k];
    e.sub.a = -1;
    e.sub.b = -1;
    e.sub.ints.clear();
    e.sub.vals.clear();
    e.sub.blob.clear();
    e.ints_at = c.ints;
    e.vals_at = c.vals;
    int key = -1;
    if (!row.decode(row, c, n, t, e, key)) return finish(false);
    if (key >= 0) {
      std::uint64_t& word = seen[static_cast<std::size_t>(key) / 64];
      const std::uint64_t bit = std::uint64_t{1} << (key % 64);
      if ((word & bit) != 0) return finish(false);
      word |= bit;
    }
    ++k;
  }
  // Whole or nothing: every int, value and blob byte belongs to an entry.
  return finish(k > 0 && c.ints == env.ints.size() &&
                c.vals == env.vals.size() && c.blob.exhausted());
}

bool Coalescer::unpack(const Message& env, bool via_rb, int n, int t,
                       std::vector<Entry>& out) {
  const int r = envelope_row(env.type);
  return r >= 0 && row_at(r).rb == via_rb && parse(env, n, t, out);
}

}  // namespace svss
