// core::Coalescer — the one framing layer between a Node's sessions and
// its transport.
//
// The paper's SVSS coin nests n^2 MW-SVSS children and n SVSS deals per
// process in every coin round, and concurrent agreement instances emit
// votes that leave one node in the same delivery cascade.  Sent one per
// session, that traffic pays the fixed per-packet (and per-RBC-instance)
// cost thousands of times over.  The Coalescer regroups it into shared
// wire envelopes at Node's send seam and splits envelopes back into their
// per-session messages on receive, so every session keeps its unmodified
// per-session interface and every correctness property keeps quantifying
// over individual sessions.
//
// The per-layer parts are a table of rows (coalescer.cpp, kRows).  Each row
// names the per-session messages it takes, the envelope MsgType it frames
// them in, how it derives its group's envelope sid, and how one entry is
// encoded and decoded:
//
//   envelope          takes                      class   flush
//   kMwBatchDirect    MW shares/poly/whole/echo/  direct  cascade
//                     monitor of a coin group
//   kMwBatchAck       kMwAck                      RB      cascade
//   kMwBatchLset      kMwLset                     RB      cascade
//   kMwBatchMset      kMwMset                     RB      cascade
//   kMwBatchOk        kMwOk                       RB      cascade
//   kMwBatchReconVal  kMwReconVal                 RB      cascade
//   kSvssBatchShares  own coin kSvssDealerShares  direct  complete group
//   kSvssBatchGset    own coin kSvssGset          RB      complete group
//   kAbaBatchVote     EST/AUX/DECIDE kAbaVote     direct  cascade
//   kAbaBatchConf     CONF kAbaVote               RB      cascade
//
// Two flush rules:
//  * Cascade rows collect while the window that Node opens around one
//    delivery cascade (start, on_packet, start_aba) is open, and flush when
//    it closes: the vote group first, then the other groups in capture
//    order, each with direct envelopes by ascending recipient and then its
//    RB rows in table order.  Every RB flush is its own RBC instance: a
//    persistent per-(group, row) sequence fills `a` (MW) or the sid
//    counter (votes).  A window holding one vote for a recipient (or one
//    CONF) re-emits the per-session message instead of an envelope.
//  * Complete-group rows collect the n attachee siblings of one coin
//    (round, dealer) group and flush the moment the last one arrives, in
//    attachee order.
//
// The invariant is framing, not scheduling: regrouping the messages of one
// cascade leaves every output the same provided no message is held past
// its cascade.  Cascade rows never outlive the window, and a complete
// group holds fewer than n entries until it flushes (asserted at close).
//
// Receivers parse a whole envelope before dispatching any entry: a
// malformed one (wrong class, bad sid shape, truncated or ragged runs,
// duplicate entries, unclaimed bytes, out-of-range attachee, round or
// subtype) is dropped whole, mirroring RBC's treatment of garbage.  Inbound
// envelopes of every layer are always understood, so coalescing and
// per-session nodes interoperate; the layer flags select only this node's
// own outbound framing.
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rbc/rbc.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

class Coalescer {
 public:
  // Which layers this node frames into envelopes.
  struct Layers {
    bool coin = true;   // coin dealer shares and G-sets
    bool mw = true;     // coin-nested MW-SVSS children
    bool votes = true;  // agreement votes across instances and rounds
  };

  // One per-session message of an envelope, with where it sits on the
  // wire: its payload ints start at env.ints[ints_at] and its values at
  // env.vals[vals_at].
  struct Entry {
    Message sub;
    std::size_t ints_at = 0;
    std::size_t vals_at = 0;
  };

  Coalescer(int self, int n, int t, Rbc& rbc, Layers layers);

  // True for the envelope MsgTypes of the table above.
  static bool is_envelope(MsgType type);

  // --- send side ---------------------------------------------------
  // Opens the cascade window; returns true iff this call opened it, i.e.
  // the caller owns the matching close().
  bool open();
  // Flushes every cascade row and closes the window.
  void close(Context& ctx);
  // Takes `m` into its row and returns true, or returns false when no
  // enabled row takes it (the caller then sends it per-session).  Direct
  // captures may move from `m`.
  bool capture_direct(Context& ctx, int to, Message& m);
  bool capture_broadcast(Context& ctx, const Message& m);

  // --- receive side ------------------------------------------------
  // The one layout view.  Replaces `out` with the entries of envelope
  // `env` in wire order, each with its per-session sid, reusing the
  // storage of out's elements; returns false if `env` is malformed, in
  // which case `out` holds only the well-formed prefix.  Byzantine
  // interceptors read envelopes through this too.
  static bool parse(const Message& env, int n, int t,
                    std::vector<Entry>& out);
  // parse() plus the transport-class check: RB envelopes must arrive
  // through RBC, direct ones on a private channel.
  static bool unpack(const Message& env, bool via_rb, int n, int t,
                     std::vector<Entry>& out);

  // One envelope under construction (public only for the row codecs in
  // coalescer.cpp).
  struct Acc {
    std::vector<int> ints;
    FieldVec vals;
    Bytes blob;
    std::uint32_t count = 0;  // entries taken
  };

 private:
  static constexpr int kMaxRbRows = 5;  // RB rows of the widest layer

  // The cascade-row envelopes of one group.
  struct Group {
    SessionId gsid;
    std::uint8_t layer = 0;            // the layer of its rows
    std::vector<Acc> direct;           // [recipient], sized on first use
    std::array<Acc, kMaxRbRows> rb{};  // [row slot]
  };
  // The siblings collected so far for one complete-group envelope.
  struct Partial {
    int row = 0;
    SessionId gsid;
    int to = -1;  // recipient of a direct row, -1 for RB
    int have = 0;
    std::bitset<kMaxN> filled;
    std::vector<Message> slots;  // [attachee]
  };

  // True iff `row` (-1: none) frames this node's traffic.
  [[nodiscard]] bool enabled(int row) const {
    return row >= 0 && ((enabled_ >> row) & 1u) != 0;
  }
  Group& group_for(int row, const SessionId& gsid);
  bool capture_complete(Context& ctx, int row, int to, Message&& m);
  void flush_group(Context& ctx, Group& g);
  void emit(Context& ctx, int row, const SessionId& gsid, int to, Acc& acc);
  // Framing, not scheduling: nothing of a cascade row outlives the window,
  // and a complete group holds fewer than n siblings until it flushes.
  [[nodiscard]] bool framing_only() const;

  int self_;
  int n_;
  int t_;
  Rbc& rbc_;
  std::uint32_t enabled_ = 0;  // bit per row of kRows

  bool open_ = false;
  // The first live_ groups are this window's, in capture order
  // (determinism).  Closed windows leave their groups here, emptied, so
  // the buffers of later windows start warm.
  std::vector<Group> groups_;
  std::size_t live_ = 0;
  std::size_t last_ = 0;  // the group of the previous capture
  std::vector<Partial> partial_;
  // Per (group, RB row) flush sequence, persisted across windows: each
  // flush is its own RBC instance, so a straggler flush never collides
  // with, or equivocates against, an earlier one.  Entries are never
  // evicted: in the async model there is no local horizon after which a
  // group provably stops flushing, and a group restarting at sequence 0
  // would reuse an instance id, an honest node equivocating against
  // itself.  One small array per group this node sent RB traffic in.
  std::unordered_map<SessionId, std::array<std::uint32_t, kMaxRbRows>,
                     SessionIdHash>
      flush_seq_;
};

}  // namespace svss
