// Unit tests for core::Coalescer, the one framing layer for every envelope
// type: capture-then-flush must round-trip through unpack to the exact
// per-session messages, each flush rule must emit when (and only when) it
// says, and a malformed envelope of any of the ten types, whatever a
// Byzantine sender frames, must be dropped whole through the single unpack
// entry: no crash, no partial delivery, no double delivery.
#include "core/coalescer.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "aba/aba.hpp"
#include "coin/coin.hpp"
#include "sim/scheduler.hpp"

namespace svss {
namespace {

constexpr int kN = 4;
constexpr int kT = 1;

// A coin-nested MW child session id: round 5, attachee j.
SessionId mw_child(int j, std::uint8_t variant = 0) {
  SessionId sid;
  sid.path = SessionPath::kMwInSvssCoin;
  sid.variant = variant;
  sid.owner = 1;
  sid.moderator = 2;
  sid.svss_dealer = 3;
  sid.counter = 5 * kMaxN + static_cast<std::uint32_t>(j);
  return sid;
}

Message msg(const SessionId& sid, MsgType type, std::vector<int> ints = {},
            FieldVec vals = {}) {
  Message m;
  m.sid = sid;
  m.type = type;
  m.ints = std::move(ints);
  m.vals = std::move(vals);
  return m;
}

Message vote(std::uint32_t instance, int round, int subtype, int value) {
  Message m = msg(SessionId{SessionPath::kAba, 0, -1, -1, -1, 0, instance},
                  MsgType::kAbaVote, {value});
  m.a = static_cast<std::int16_t>(round);
  m.b = static_cast<std::int16_t>(subtype);
  return m;
}

// One process's Coalescer over a simulator slot whose outbound packets are
// recorded (and dropped) instead of delivered.
struct Emitted {
  int to;  // -1 for an RB broadcast
  Message m;
};

class Harness {
 public:
  explicit Harness(int self, Coalescer::Layers layers = {})
      : self_(self),
        engine_(kN, kT, 1, std::make_unique<FifoScheduler>()),
        rbc_([](Context&, int, const Message&) {}),
        co(self, kN, kT, rbc_, layers) {
    engine_.set_interceptor(self, [this](int, int to, Packet& p) {
      if (!p.is_rb) {
        out.push_back(Emitted{to, p.app});
      } else if (to == 0) {  // one record per send_all burst
        auto m = Message::deserialize(p.rb_payload());
        EXPECT_TRUE(m.has_value());
        if (m) out.push_back(Emitted{-1, *m});
      }
      return false;
    });
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  Context ctx() { return Context(engine_, self_); }
  bool direct(int to, Message m) {
    Context c = ctx();
    return co.capture_direct(c, to, m);
  }
  bool broadcast(const Message& m) {
    Context c = ctx();
    return co.capture_broadcast(c, m);
  }
  void close() {
    Context c = ctx();
    co.close(c);
  }

 private:
  int self_;
  Engine engine_;
  Rbc rbc_;

 public:
  Coalescer co;
  std::vector<Emitted> out;
};

std::vector<Message> unpack_subs(const Emitted& e) {
  std::vector<Coalescer::Entry> entries;
  EXPECT_TRUE(Coalescer::unpack(e.m, e.to < 0, kN, kT, entries));
  std::vector<Message> subs;
  for (auto& entry : entries) subs.push_back(std::move(entry.sub));
  return subs;
}

// ---------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------
TEST(Coalescer, CascadeRoundTripReproducesPerSessionMessages) {
  Harness h(1);
  ASSERT_TRUE(h.co.open());
  EXPECT_FALSE(h.co.open());  // nested brackets leave the close to the owner

  std::vector<Message> acks;
  for (int j = 0; j < kN; ++j) {
    acks.push_back(msg(mw_child(j), MsgType::kMwAck));
    ASSERT_TRUE(h.broadcast(acks.back()));
  }
  Message lset = msg(mw_child(2), MsgType::kMwLset, {0, 1, 3});
  ASSERT_TRUE(h.broadcast(lset));
  Message recon = msg(mw_child(1), MsgType::kMwReconVal, {}, {Fp(77)});
  recon.a = 3;
  ASSERT_TRUE(h.broadcast(recon));
  Message echo = msg(mw_child(0), MsgType::kMwEchoVal, {}, {Fp(5)});
  ASSERT_TRUE(h.direct(2, echo));
  Message shares = msg(mw_child(3), MsgType::kMwDealerShares, {},
                       {Fp(8), Fp(9), Fp(10), Fp(11)});
  ASSERT_TRUE(h.direct(2, shares));
  // The sibling group of the other variant is its own group.
  Message other = msg(mw_child(0, 1), MsgType::kMwOk);
  ASSERT_TRUE(h.broadcast(other));
  EXPECT_TRUE(h.out.empty()) << "cascade rows flush only at close";
  h.close();

  // Groups in capture order; within one, the direct envelope first, then
  // the RB rows in table order (ack, L-set, recon).
  ASSERT_EQ(h.out.size(), 5u);
  EXPECT_EQ(h.out[0].to, 2);
  EXPECT_EQ(h.out[0].m.type, MsgType::kMwBatchDirect);
  EXPECT_EQ(h.out[1].m.type, MsgType::kMwBatchAck);
  EXPECT_EQ(h.out[2].m.type, MsgType::kMwBatchLset);
  EXPECT_EQ(h.out[3].m.type, MsgType::kMwBatchReconVal);
  EXPECT_EQ(h.out[4].m.type, MsgType::kMwBatchOk);
  for (const Emitted& e : h.out) {
    EXPECT_EQ(e.m.sid.counter % kMaxN, 0u);
    EXPECT_EQ(e.m.sid.variant, e.m.type == MsgType::kMwBatchOk ? 3 : 2);
  }
  // Each RB flush is its own RBC instance: a = per-(group, row) sequence.
  EXPECT_EQ(h.out[1].m.a, 0);

  EXPECT_EQ(unpack_subs(h.out[0]), (std::vector<Message>{echo, shares}));
  EXPECT_EQ(unpack_subs(h.out[1]), acks);
  EXPECT_EQ(unpack_subs(h.out[2]), std::vector<Message>{lset});
  EXPECT_EQ(unpack_subs(h.out[3]), std::vector<Message>{recon});
  EXPECT_EQ(unpack_subs(h.out[4]), std::vector<Message>{other});

  // A second window's flush of the same (group, row) takes the next
  // sequence number.
  ASSERT_TRUE(h.co.open());
  ASSERT_TRUE(h.broadcast(acks[0]));
  h.close();
  ASSERT_EQ(h.out.size(), 6u);
  EXPECT_EQ(h.out[5].m.a, 1);
}

TEST(Coalescer, CascadeRowsPassThroughOutsideTheWindow) {
  Harness h(1);
  EXPECT_FALSE(h.broadcast(msg(mw_child(0), MsgType::kMwAck)));
  EXPECT_FALSE(h.direct(0, vote(0, 1, 0, 1)));
  EXPECT_TRUE(h.out.empty());
}

TEST(Coalescer, DisabledLayersLeaveTrafficPerSession) {
  Harness h(0, Coalescer::Layers{false, false, false});
  ASSERT_TRUE(h.co.open());
  EXPECT_FALSE(h.broadcast(msg(mw_child(0), MsgType::kMwAck)));
  EXPECT_FALSE(h.direct(1, vote(0, 1, 0, 1)));
  EXPECT_FALSE(h.direct(1, msg(coin_svss_id(5, 0, 0),
                               MsgType::kSvssDealerShares, {},
                               FieldVec(4, Fp(1)))));
  h.close();
  EXPECT_TRUE(h.out.empty());
}

TEST(Coalescer, VotesFlushFirstAndLoneVotesStayPlain) {
  Harness h(0);
  ASSERT_TRUE(h.co.open());
  ASSERT_TRUE(h.broadcast(msg(mw_child(0), MsgType::kMwAck)));
  // Recipient 1 gets two votes (an envelope), recipient 3 one (plain) —
  // including a reserved high instance id, which must leave verbatim.
  Message v1 = vote(0, 1, 0, 1);
  Message v2 = vote(7, 2, 3, 0);
  Message lone = vote(0xE0000000u, 1, 1, 1);
  ASSERT_TRUE(h.direct(1, v1));
  ASSERT_TRUE(h.direct(3, lone));
  ASSERT_TRUE(h.direct(1, v2));
  Message c1 = vote(0, 1, 2, 3);
  Message c2 = vote(2, 1, 2, 1);
  ASSERT_TRUE(h.broadcast(c1));
  ASSERT_TRUE(h.broadcast(c2));
  // Malformed votes are not the coalescer's to frame.
  Message bad_round = vote(0, 0, 0, 1);
  EXPECT_FALSE(h.direct(1, bad_round));
  h.close();

  ASSERT_EQ(h.out.size(), 4u);
  EXPECT_EQ(h.out[0].to, 1);
  EXPECT_EQ(h.out[0].m.type, MsgType::kAbaBatchVote);
  EXPECT_EQ(unpack_subs(h.out[0]), (std::vector<Message>{v1, v2}));
  EXPECT_EQ(h.out[1].to, 3);
  EXPECT_EQ(h.out[1].m, lone);
  EXPECT_EQ(h.out[2].m.type, MsgType::kAbaBatchConf);
  EXPECT_EQ(h.out[2].m.sid.counter, 0u);  // flush sequence
  EXPECT_EQ(unpack_subs(h.out[2]), (std::vector<Message>{c1, c2}));
  EXPECT_EQ(h.out[3].m.type, MsgType::kMwBatchAck);

  // A lone CONF stays plain and consumes no flush sequence; the next CONF
  // envelope takes sequence 1.
  ASSERT_TRUE(h.co.open());
  ASSERT_TRUE(h.broadcast(c1));
  h.close();
  ASSERT_TRUE(h.co.open());
  ASSERT_TRUE(h.broadcast(c1));
  ASSERT_TRUE(h.broadcast(c2));
  h.close();
  ASSERT_EQ(h.out.size(), 6u);
  EXPECT_EQ(h.out[4].m, c1);
  EXPECT_EQ(h.out[5].m.sid.counter, 1u);
}

TEST(Coalescer, CompleteGroupsFlushOnTheLastSibling) {
  Harness h(0);
  // Dealer 0 deals the n sessions of round 5 in attachee order, each to
  // every recipient, with no window open: recipient r's envelope leaves
  // the moment the last sibling's share for r is captured.
  std::vector<std::vector<Message>> per_recipient(kN);
  for (int j = 0; j < kN; ++j) {
    for (int to = 0; to < kN; ++to) {
      FieldVec vals;
      for (int x = 0; x < 2 * (kT + 1); ++x) vals.emplace_back(10 * j + to + x);
      Message m = msg(coin_svss_id(5, 0, j), MsgType::kSvssDealerShares, {},
                      vals);
      per_recipient[static_cast<std::size_t>(to)].push_back(m);
      ASSERT_TRUE(h.direct(to, m));
      EXPECT_EQ(h.out.size(),
                j == kN - 1 ? static_cast<std::size_t>(to) + 1 : 0u);
    }
  }
  for (int to = 0; to < kN; ++to) {
    const Emitted& e = h.out[static_cast<std::size_t>(to)];
    EXPECT_EQ(e.to, to);
    EXPECT_EQ(e.m.type, MsgType::kSvssBatchShares);
    EXPECT_EQ(e.m.sid.variant, 1);
    EXPECT_EQ(unpack_subs(e), per_recipient[static_cast<std::size_t>(to)]);
  }

  // G-sets complete in any order and go out in attachee order.
  std::vector<Message> gsets(kN);
  for (int j : {2, 0, 3, 1}) {
    Message g = msg(coin_svss_id(5, 0, j), MsgType::kSvssGset, {0, 1, 3});
    g.blob = {static_cast<std::uint8_t>(j), 0xAB};
    gsets[static_cast<std::size_t>(j)] = g;
    ASSERT_TRUE(h.broadcast(g));
  }
  ASSERT_EQ(h.out.size(), static_cast<std::size_t>(kN) + 1);
  EXPECT_EQ(h.out.back().m.type, MsgType::kSvssBatchGset);
  EXPECT_EQ(unpack_subs(h.out.back()), gsets);

  // Only a dealer's own sessions are its to frame.
  EXPECT_FALSE(h.broadcast(msg(coin_svss_id(5, 1, 0), MsgType::kSvssGset)));
}

// ---------------------------------------------------------------------
// Receive side: every envelope type, well-formed and malformed.
// ---------------------------------------------------------------------
Message mw_env(MsgType type, std::vector<int> ints, FieldVec vals = {}) {
  SessionId sid = mw_child(0);
  sid.variant = 2;
  return msg(sid, type, std::move(ints), std::move(vals));
}

SessionId coin_env_sid() {
  SessionId sid = coin_svss_id(5, 1, 0);
  sid.variant = 1;
  return sid;
}

Message shares_env(std::size_t vals) {
  return msg(coin_env_sid(), MsgType::kSvssBatchShares, {},
             FieldVec(vals, Fp(3)));
}

// n (G, {G_j}) parts, optionally with a longer G or trailing garbage.
Message gset_env(int parts, std::size_t g_len = 3, bool trailing = false) {
  Writer w;
  for (int j = 0; j < parts; ++j) {
    w.int_vec(std::vector<int>(g_len, j));
    w.bytes(Bytes{1, 2});
  }
  if (trailing) w.u8(0);
  Message m = msg(coin_env_sid(), MsgType::kSvssBatchGset);
  m.blob = std::move(w).take();
  return m;
}

Message vote_env(MsgType type, std::vector<int> ints,
                 std::uint32_t counter = 0) {
  return msg(SessionId{SessionPath::kAba, 4, -1, -1, -1, counter, 0}, type,
             std::move(ints));
}

template <typename Fn>
Message with(Message m, Fn&& fn) {
  fn(m);
  return m;
}

struct Case {
  const char* name;
  Message env;
  bool via_rb;
  int entries;  // expected entries, or -1 when the envelope must drop
};

const int kEcho = static_cast<int>(MsgType::kMwEchoVal);
const int kShares = static_cast<int>(MsgType::kMwDealerShares);
const int kRound = static_cast<int>(kCoinRoundsPerInstance);

std::vector<Case> cases() {
  Message direct = mw_env(MsgType::kMwBatchDirect, {kEcho, 0, 1, kShares, 3, 2},
                          {Fp(1), Fp(2), Fp(3)});
  Message ack = mw_env(MsgType::kMwBatchAck, {0, 1, 2, 3});
  Message lset = mw_env(MsgType::kMwBatchLset, {2, 3, 0, 1, 3});
  Message mset = mw_env(MsgType::kMwBatchMset, {1, 1, 0});
  Message ok = mw_env(MsgType::kMwBatchOk, {3});
  Message recon = mw_env(MsgType::kMwBatchReconVal, {0, 1, 2, 3},
                         {Fp(1), Fp(2)});
  Message shares = shares_env(kN * 2 * (kT + 1));
  Message gset = gset_env(kN);
  Message votes = vote_env(MsgType::kAbaBatchVote, {0, 1, 0, 1, 7, 2, 3, 0});
  Message confs = vote_env(MsgType::kAbaBatchConf, {0, 1, 3, 2, 1, 1}, 5);
  return {
      // Well-formed: one of each type.
      {"mw-direct", direct, false, 2},
      {"mw-ack", ack, true, 4},
      {"mw-lset", lset, true, 1},
      {"mw-mset", mset, true, 1},
      {"mw-ok", ok, true, 1},
      {"mw-recon", recon, true, 2},
      {"coin-shares", shares, false, kN},
      {"coin-gset", gset, true, kN},
      {"aba-votes", votes, false, 2},
      {"aba-confs", confs, true, 2},
      // Wrong transport class, every type.
      {"class/mw-direct", direct, true, -1},
      {"class/mw-ack", ack, false, -1},
      {"class/mw-lset", lset, false, -1},
      {"class/mw-mset", mset, false, -1},
      {"class/mw-ok", ok, false, -1},
      {"class/mw-recon", recon, false, -1},
      {"class/coin-shares", shares, true, -1},
      {"class/coin-gset", gset, false, -1},
      {"class/aba-votes", votes, true, -1},
      {"class/aba-confs", confs, false, -1},
      // Bad sid shape.
      {"sid/mw-child-variant", with(ack, [](Message& m) { m.sid.variant = 1; }),
       true, -1},
      {"sid/mw-off-slot", with(ack, [](Message& m) { m.sid.counter += 1; }),
       true, -1},
      {"sid/mw-wrong-path",
       with(ack, [](Message& m) { m.sid.path = SessionPath::kMwInSvssTop; }),
       true, -1},
      {"sid/coin-child-variant",
       with(shares, [](Message& m) { m.sid.variant = 0; }), false, -1},
      {"sid/coin-off-slot",
       with(gset, [](Message& m) { m.sid.counter += 2; }), true, -1},
      {"sid/vote-variant", with(votes, [](Message& m) { m.sid.variant = 0; }),
       false, -1},
      {"sid/vote-instance", with(votes, [](Message& m) { m.sid.instance = 1; }),
       false, -1},
      {"sid/vote-owner", with(confs, [](Message& m) { m.sid.owner = 0; }),
       true, -1},
      {"sid/vote-direct-counter",
       with(votes, [](Message& m) { m.sid.counter = 1; }), false, -1},
      // Truncated, ragged, or carrying unclaimed bytes.
      {"ragged/mw-direct-short-triple",
       mw_env(MsgType::kMwBatchDirect, {kEcho, 0}), false, -1},
      {"ragged/mw-direct-len-past-vals",
       mw_env(MsgType::kMwBatchDirect, {kEcho, 0, 2}, {Fp(1)}), false, -1},
      {"ragged/mw-direct-unclaimed-vals",
       mw_env(MsgType::kMwBatchDirect, {kEcho, 0, 1}, {Fp(1), Fp(2)}), false,
       -1},
      {"ragged/mw-direct-negative-len",
       mw_env(MsgType::kMwBatchDirect, {kEcho, 0, -1}), false, -1},
      {"ragged/mw-ack-stray-vals",
       mw_env(MsgType::kMwBatchAck, {0}, {Fp(1)}), true, -1},
      {"ragged/mw-ok-stray-blob",
       with(ok, [](Message& m) { m.blob = {0xFF}; }), true, -1},
      {"ragged/mw-lset-short-header", mw_env(MsgType::kMwBatchLset, {0}), true,
       -1},
      {"ragged/mw-lset-len-past-end",
       mw_env(MsgType::kMwBatchLset, {0, 5, 1, 2}), true, -1},
      {"ragged/mw-mset-negative-len", mw_env(MsgType::kMwBatchMset, {0, -1}),
       true, -1},
      {"ragged/mw-recon-odd-ints",
       mw_env(MsgType::kMwBatchReconVal, {0, 1, 2}, {Fp(1)}), true, -1},
      {"ragged/mw-recon-extra-vals",
       mw_env(MsgType::kMwBatchReconVal, {0, 1}, {Fp(1), Fp(2)}), true, -1},
      {"ragged/mw-ack-empty", mw_env(MsgType::kMwBatchAck, {}), true, -1},
      {"ragged/coin-shares-short", shares_env(kN * 2 * (kT + 1) - 1), false,
       -1},
      {"ragged/coin-shares-long", shares_env(kN * 2 * (kT + 1) + 1), false,
       -1},
      {"ragged/coin-shares-stray-ints",
       with(shares, [](Message& m) { m.ints = {0}; }), false, -1},
      {"ragged/coin-gset-missing-part", gset_env(kN - 1), true, -1},
      {"ragged/coin-gset-trailing-byte", gset_env(kN, 3, true), true, -1},
      {"ragged/coin-gset-stray-vals",
       with(gset, [](Message& m) { m.vals = {Fp(1)}; }), true, -1},
      {"ragged/aba-votes-partial-run",
       vote_env(MsgType::kAbaBatchVote, {0, 1, 0, 1, 0, 1, 0}), false, -1},
      {"ragged/aba-confs-partial-run",
       vote_env(MsgType::kAbaBatchConf, {0, 1, 3, 0}), true, -1},
      {"ragged/aba-votes-stray-vals",
       with(votes, [](Message& m) { m.vals = {Fp(1)}; }), false, -1},
      {"ragged/aba-votes-empty", vote_env(MsgType::kAbaBatchVote, {}), false,
       -1},
      // Duplicate entries.
      {"dup/mw-direct",
       mw_env(MsgType::kMwBatchDirect, {kEcho, 1, 1, kEcho, 1, 1},
              {Fp(1), Fp(2)}),
       false, -1},
      {"dup/mw-ack", mw_env(MsgType::kMwBatchAck, {2, 1, 2}), true, -1},
      {"dup/mw-mset", mw_env(MsgType::kMwBatchMset, {1, 1, 0, 1, 1, 2}), true,
       -1},
      {"dup/mw-recon",
       mw_env(MsgType::kMwBatchReconVal, {0, 1, 0, 1}, {Fp(1), Fp(2)}), true,
       -1},
      // Out-of-range attachee, poly, sub-type, round, subtype or instance.
      {"range/mw-ack-attachee", mw_env(MsgType::kMwBatchAck, {0, 4}), true, -1},
      {"range/mw-ok-negative", mw_env(MsgType::kMwBatchOk, {-1}), true, -1},
      {"range/mw-lset-attachee", mw_env(MsgType::kMwBatchLset, {4, 0}), true,
       -1},
      {"range/mw-recon-poly",
       mw_env(MsgType::kMwBatchReconVal, {0, 4}, {Fp(1)}), true, -1},
      {"range/mw-direct-subtype",
       mw_env(MsgType::kMwBatchDirect,
              {static_cast<int>(MsgType::kMwAck), 0, 0}),
       false, -1},
      {"range/mw-direct-attachee",
       mw_env(MsgType::kMwBatchDirect, {kEcho, 4, 1}, {Fp(1)}), false, -1},
      {"range/coin-gset-long-set", gset_env(kN, kN + 1), true, -1},
      {"range/aba-votes-round-0",
       vote_env(MsgType::kAbaBatchVote, {0, 0, 0, 1}), false, -1},
      {"range/aba-votes-round-max",
       vote_env(MsgType::kAbaBatchVote, {0, kRound, 0, 1}), false, -1},
      {"range/aba-votes-conf-subtype",
       vote_env(MsgType::kAbaBatchVote, {0, 1, 2, 1}), false, -1},
      {"range/aba-votes-instance",
       vote_env(MsgType::kAbaBatchVote, {-1, 1, 0, 1}), false, -1},
      {"range/aba-confs-round-0",
       vote_env(MsgType::kAbaBatchConf, {0, 0, 3}, 1), true, -1},
      {"range/aba-confs-instance",
       vote_env(MsgType::kAbaBatchConf, {-1, 1, 3}, 1), true, -1},
  };
}

TEST(EnvelopeUnpack, EveryTypeParsesWholeOrDropsWhole) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(Coalescer::is_envelope(c.env.type));
    std::vector<Coalescer::Entry> entries;
    bool ok = Coalescer::unpack(c.env, c.via_rb, kN, kT, entries);
    if (c.entries < 0) {
      EXPECT_FALSE(ok);
    } else {
      EXPECT_TRUE(ok);
      EXPECT_EQ(entries.size(), static_cast<std::size_t>(c.entries));
    }
  }
}

TEST(EnvelopeUnpack, EntriesCarryTheirPerSessionSids) {
  std::vector<Coalescer::Entry> entries;
  ASSERT_TRUE(Coalescer::unpack(gset_env(kN), true, kN, kT, entries));
  for (int j = 0; j < kN; ++j) {
    EXPECT_EQ(entries[static_cast<std::size_t>(j)].sub.sid,
              coin_svss_id(5, 1, j));
  }
  entries.clear();
  Message lset = mw_env(MsgType::kMwBatchLset, {2, 3, 0, 1, 3, 0, 1, 2});
  lset.sid.variant = 3;
  ASSERT_TRUE(Coalescer::unpack(lset, true, kN, kT, entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].sub.sid, mw_child(2, 1));
  EXPECT_EQ(entries[1].sub.sid, mw_child(0, 1));
  // The layout view locates each run's members on the wire.
  EXPECT_EQ(entries[0].ints_at, 2u);
  EXPECT_EQ(entries[1].ints_at, 7u);
}

TEST(EnvelopeUnpack, NonEnvelopeTypesAreNotUnpacked) {
  std::vector<Coalescer::Entry> entries;
  EXPECT_FALSE(Coalescer::is_envelope(MsgType::kMwAck));
  EXPECT_FALSE(Coalescer::unpack(msg(mw_child(0), MsgType::kMwAck), true, kN,
                                 kT, entries));
  EXPECT_TRUE(entries.empty());
}

}  // namespace
}  // namespace svss
