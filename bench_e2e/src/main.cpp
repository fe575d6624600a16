// bench_e2e: the real engine's end-to-end benchmark driver.
//
// Runs one workload (README.md has the table) against a real Universe from
// pinned worker threads, through public calls only: Universe, Rank::isend/
// irecv/wait_all/progress, coll::allreduce, Rank::counters() and
// obs::contention_snapshot(). Every delivered message and every allreduce
// result is checked against values generated from --seed; every non-kOk
// settle, every mismatch and every op left unfinished at the time limit is
// counted as failed. Prints one JSON object on stdout; bench_e2e/run.py
// turns it into the benchmark's metrics.
//
//   bench_e2e --workload pairwise --seed 1 --seconds 10 [--trace-out F]
//             [--inject corrupt|fail_settle|wrong_binding|hang|hang_sender]
//             [--ft]
//
// With --trace-out the run is the traced run: obs is on, sampled spans are
// recorded around the public calls, the per-layer report is added to the
// output and the spans are written, merged into the engine's own trace
// export, to F in Chrome trace-event format. --ft adds
// reliability and the ft failure detector to the workload's configuration:
// it reproduces a known defect (README.md) and is not a timed workload.
//
// Exit codes: 0 run finished and every check passed; 1 a check failed;
// 2 bad arguments; 3 refused (oversubscribed host, FAIRMPI_* variable set,
// or a CRI binding that differs from the workload's); 4 the wall-clock
// limit of 2 * --seconds + 30 s was hit.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/coll/coll.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/fabric/wire.hpp"
#include "fairmpi/obs/contention.hpp"
#include "spans.hpp"

extern char** environ;

namespace {

using bench::SpanLog;
using bench::SpanName;
using fairmpi::CommId;
using fairmpi::Config;
using fairmpi::Rank;
using fairmpi::Request;
using fairmpi::Universe;
using fairmpi::common::ErrorCode;
using fairmpi::spc::Counter;

constexpr int kWindow = 128;           ///< messages per window (the paper's)
constexpr std::uint64_t kCredit = 2;   ///< windows a pairwise sender runs ahead of acks
constexpr int kAckTagBase = 1000;      ///< pairwise window acks: tag kAckTagBase + pair
constexpr int kIncastTag = 3;
constexpr int kUnusedTag = 999;        ///< no one sends on it (fail_settle / hang probes)
constexpr std::uint64_t kIncastInFlight = kWindow * 8 + 1024;
constexpr std::uint64_t kInjectAt = 1000;  ///< message / call index the probes hit
constexpr std::uint64_t kUnset = ~std::uint64_t{0};
constexpr int kTraceTidBase = 1000;    ///< span tracks sit past the engine's slot tids
constexpr double kIntervalS = 0.25;    ///< rate and latency are medians over intervals this long
/// Untimed share of --seconds run before timing starts: the first two
/// seconds or so of incast run visibly faster than the steady state.
constexpr double kWarmupShare = 0.2;
/// setup_s is the fastest of this many back-to-back set-ups (about 1 s):
/// the host's speed swings by up to half within a second, and only the fastest
/// of a second's worth of set-ups reads the same from one run to the next.
constexpr int kSetupReps = 401;
constexpr std::uint32_t kLatPerInterval = 8192;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;  ///< per worker, traced run
constexpr std::size_t kSpanExportCap = 4096;  ///< spans per worker written to the trace file

enum class Kind { kPairwise, kIncast, kAllreduce };
enum class Inject { kNone, kCorrupt, kFailSettle, kWrongBinding, kHang, kHangSender };

/// One worker thread's place in a workload: which rank it drives, which
/// CRI it must end up bound to, and its pair / sender / thread index.
struct Role {
  int rank;
  int cri;
  int index;
  bool sender;
};

struct Workload {
  const char* name;
  Kind kind;
  Config cfg;
  std::vector<Role> roles;        ///< worker w runs roles[w] pinned to CPU w
  std::vector<int> touch_order;   ///< workers touch their rank in this order
  std::size_t allreduce_bytes;    ///< kAllreduce only
  /// Traced run: spans on every Nth unit (window, call, or incast send),
  /// chosen so a 5 s traced run stays within kSpanCapacity per worker.
  std::uint64_t sample_every;
};

/// Two CRIs per rank, dedicated binding, concurrent progress (Alg. 2).
Config two_cri_config(bool reliable) {
  Config c;
  c.num_ranks = 2;
  c.num_instances = 2;
  c.assignment = fairmpi::cri::Assignment::kDedicated;
  c.progress_mode = fairmpi::progress::ProgressMode::kConcurrent;
  c.reliable = reliable;
  return c;
}

std::vector<Workload> workloads() {
  const std::vector<Role> pairs = {
      {0, 0, 0, true}, {0, 1, 1, true}, {1, 0, 0, false}, {1, 1, 1, false}};
  const std::vector<Role> crossed = {
      {0, 0, 0, true}, {0, 1, 1, true}, {1, 1, 0, false}, {1, 0, 1, false}};
  Config incast;
  incast.num_ranks = 2;
  incast.num_instances = 1;
  incast.progress_mode = fairmpi::progress::ProgressMode::kSerial;
  const std::vector<Role> threads = {
      {0, 0, 0, false}, {0, 1, 1, false}, {1, 0, 0, false}, {1, 1, 1, false}};
  return {
      {"pairwise", Kind::kPairwise, two_cri_config(false), pairs, {0, 1, 2, 3}, 0, 1024},
      {"pairwise_crossed", Kind::kPairwise, two_cri_config(false), crossed, {0, 1, 3, 2}, 0, 512},
      {"pairwise_reliable", Kind::kPairwise, two_cri_config(true), pairs, {0, 1, 2, 3}, 0, 128},
      {"incast", Kind::kIncast, incast,
       {{0, 0, 0, true}, {0, 0, 1, true}, {0, 0, 2, true}, {1, 0, 0, false}}, {0, 1, 2, 3}, 0, 256},
      {"allreduce_8B", Kind::kAllreduce, two_cri_config(false), threads, {0, 1, 2, 3}, 8, 64},
      {"allreduce_1MiB", Kind::kAllreduce, two_cri_config(false), threads, {0, 1, 2, 3},
       std::size_t{1} << 20, 1},
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;
  Inject inject = Inject::kNone;
  /// Reproduction of a known defect, never a timed workload: reliability
  /// plus the ft failure detector on the workload's fault-free fabric.
  bool ft = false;
};

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Message payload: 8 bytes, sender id in the top byte, the sender's
// sequence number in the low 56 bits masked with a per-(seed, sender) key,
// so the bytes on the wire differ per seed while the receiver can still
// read who sent a message and which one it was.
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 56) - 1;

std::uint64_t seq_key(std::uint64_t seed, std::uint64_t sender) noexcept {
  return splitmix64(seed * 0x100 + sender) & kSeqMask;
}

std::uint64_t encode(std::uint64_t seed, std::uint64_t sender, std::uint64_t seq) noexcept {
  return (sender << 56) | ((seq ^ seq_key(seed, sender)) & kSeqMask);
}

/// Allreduce input element j of buffer k on (rank, thread).
std::uint64_t allreduce_input(std::uint64_t seed, int rank, int thread, std::uint64_t k,
                              std::uint64_t j) noexcept {
  return splitmix64(seed ^ splitmix64((static_cast<std::uint64_t>(rank) << 48) ^
                                      (static_cast<std::uint64_t>(thread) << 40) ^ (k << 32) ^ j));
}

/// Per-worker state. Counters the coordinator reads while the worker runs
/// are atomics; the rest is read only after the worker has finished.
struct alignas(64) Worker {
  Role role{};
  int cpu = -1;               ///< CPU the worker is pinned to
  int cpu_seen = -1;          ///< sched_getcpu() after pinning
  int cri_touch = -1;         ///< binding read back after the sequenced touch
  int cri_after = -1;         ///< binding read back after the run
  int binding_mismatches = 0; ///< setup repetitions whose binding was wrong
  std::uint64_t touch_ns = 0; ///< this repetition's first-touch call

  std::atomic<std::uint64_t> verified{0};   ///< verified deliveries / calls, whole run
  std::atomic<std::uint64_t> inflight{0};   ///< ops posted but not yet settled+checked
  std::atomic<std::uint64_t> committed{0};  ///< senders: units they will send
  std::atomic<std::uint64_t> final_units{kUnset};
  std::atomic<bool> finished{false};

  std::uint64_t attempted = 0;  ///< ops whose outcome was checked
  std::uint64_t failed_settle = 0;
  ErrorCode first_error = ErrorCode::kOk;  ///< first non-kOk settle seen
  std::uint64_t mismatches = 0;
  /// Window / call latencies while timing: a uniform sample of up to
  /// kLatPerInterval per timed interval, in a block allocated and touched
  /// at set-up so the run's memory does not depend on how fast it goes.
  std::vector<std::uint32_t> lat_ns;
  std::vector<std::uint64_t> lat_seen;  ///< latencies offered per interval
  std::uint64_t lat_rng = 0;            ///< reservoir sampling state
  SpanLog spans;
};

/// Two threads calling one collective must make the same number of calls.
/// Before each call a thread asks the gate: once stop is seen the gate fixes
/// the end at the larger count either thread has started, so the thread
/// that is behind finishes the call its partner is already in.
struct PairGate {
  std::mutex m;
  std::uint64_t started[2] = {0, 0};
  std::uint64_t end = kUnset;

  bool may_start(int side, std::uint64_t i, bool stop) {
    std::lock_guard<std::mutex> g(m);
    if (end == kUnset && stop) end = std::max(started[0], started[1]);
    if (i >= end) return false;
    started[side] = i + 1;
    return true;
  }
};

/// Incast senders share one in-flight budget against the receiver's
/// consumption, so three producers cannot outrun one consumer without bound.
struct IncastFlow {
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> consumed{0};
};

struct Run {
  const Workload* wl = nullptr;
  Options opt;
  bool traced = false;
  std::unique_ptr<Universe> uni;
  std::vector<CommId> comms;  ///< per pair (pairwise) / per thread (allreduce)
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::unique_ptr<PairGate>> gates;

  // Setup handshake: the coordinator publishes a universe and a turn
  // token; worker touch_order[pos] touches when the token reads
  // rep * 64 + pos and hands it on.
  std::atomic<Universe*> setup_uni{nullptr};
  std::atomic<int> turn{-1};

  std::atomic<int> pinned{0};
  std::atomic<bool> go{false};
  /// Timed interval in progress (0..intervals-1); -1 before and after.
  std::atomic<int> interval{-1};
  std::atomic<bool> stop{false};

  // Allreduce inputs and expected sums, generated from the seed at set-up.
  std::size_t count = 0;          ///< uint64 elements per call
  std::uint64_t nbufs = 0;        ///< distinct input buffers per (rank, thread)
  std::vector<std::vector<std::uint64_t>> inputs;    ///< [(rank*2+thread)*nbufs + k]
  std::vector<std::vector<std::uint64_t>> expected;  ///< [thread*nbufs + k]

  IncastFlow incast;
};

[[noreturn]] void die(int code, const std::string& msg) {
  std::fprintf(stderr, "bench_e2e: %s\n", msg.c_str());
  std::fflush(nullptr);
  std::_Exit(code);  // may run on a worker while others still spin
}

int pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

// ---------------------------------------------------------------- workers

/// Block (futex, not spin) until `v` reads `want`: during set-up the
/// waiting workers must leave the CPUs to the thread building the universe.
void wait_for(const std::atomic<int>& v, int want) {
  for (int cur = v.load(std::memory_order_acquire); cur != want;
       cur = v.load(std::memory_order_acquire)) {
    v.wait(cur, std::memory_order_acquire);
  }
}

void publish(std::atomic<int>& v, int value) {
  v.store(value, std::memory_order_release);
  v.notify_all();
}

/// Sequenced first touch, once per setup repetition.
void setup_touches(Run& run, Worker& me, int pos) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    wait_for(run.turn, rep * 64 + pos);
    Universe* u = run.setup_uni.load(std::memory_order_acquire);
    const std::uint64_t t0 = fairmpi::now_ns();
    const int cri = u->rank(me.role.rank).pool().id_for_thread();
    me.touch_ns = fairmpi::now_ns() - t0;
    if (cri != me.role.cri) ++me.binding_mismatches;
    me.cri_touch = cri;
    publish(run.turn, rep * 64 + pos + 1);
  }
}

/// Offer the latency of a unit that started inside a timed interval.
/// Reservoir sampling keeps a uniform sample of the interval's units, so a
/// stall late in an interval is as likely to be kept as one early in it.
void record_latency(Worker& me, int interval, std::uint64_t ns) {
  if (interval < 0) return;
  const std::size_t iv = static_cast<std::size_t>(interval);
  const std::uint64_t seen = me.lat_seen[iv]++;
  std::uint64_t slot = seen;
  if (seen >= kLatPerInterval) {
    slot = splitmix64(me.lat_rng++) % (seen + 1);
    if (slot >= kLatPerInterval) return;
  }
  me.lat_ns[iv * kLatPerInterval + slot] =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, 0xFFFFFFFFu));
}

void note_failure(Worker& me, ErrorCode ec) {
  if (me.failed_settle++ == 0) me.first_error = ec;
}

/// Count one op whose settle the driver checks (sends, acks, probes).
void check_settle(Worker& me, const Request& r) {
  ++me.attempted;
  if (r.failed()) note_failure(me, r.error());
}

void pairwise_sender(Run& run, Worker& me, std::uint64_t sender_id) {
  Rank& rank = run.uni->rank(0);
  const CommId comm = run.comms[static_cast<std::size_t>(me.role.index)];
  const int tag = me.role.index;
  // One slot past the window for the hang_sender probe.
  std::vector<Request> sreq(kWindow + 1);
  std::vector<Request*> sptr;
  for (auto& r : sreq) sptr.push_back(&r);
  std::vector<std::uint64_t> payload(kWindow);
  Request acks[kCredit];
  const auto wait_ack = [&](Request& ack, std::uint64_t unit, int parent) {
    fairmpi::SpinWait w;
    me.inflight.store(1, std::memory_order_relaxed);
    while (!ack.done()) {
      const int s = me.spans.begin(SpanName::kProgress, unit, parent);
      const std::size_t got = rank.progress();
      me.spans.end(s, static_cast<std::uint16_t>(std::min<std::size_t>(got, 0xFFFF)));
      if (got == 0) w.pause(); else w.reset();
    }
    me.inflight.store(0, std::memory_order_relaxed);
    check_settle(me, ack);
  };

  std::uint64_t seq = 0;
  std::uint64_t k = 0;
  for (;; ++k) {
    if (run.stop.load(std::memory_order_acquire)) break;
    me.committed.store(k + 1, std::memory_order_release);
    me.spans.set_sampling(run.traced && k % run.wl->sample_every == 0);
    const int win = me.spans.begin(SpanName::kWindow, k, -1);
    if (k >= kCredit) wait_ack(acks[k % kCredit], k, win);
    const bool probe = run.opt.inject == Inject::kHangSender && sender_id == 0 &&
                       k == kInjectAt / kWindow;
    const std::size_t total = kWindow + (probe ? 1 : 0);
    me.inflight.store(total, std::memory_order_relaxed);
    for (int i = 0; i < kWindow; ++i) {
      std::uint64_t s = seq++;
      if (run.opt.inject == Inject::kCorrupt && sender_id == 0 && s == kInjectAt) ++s;
      payload[static_cast<std::size_t>(i)] = encode(run.opt.seed, sender_id, s);
      const int sp = me.spans.begin(SpanName::kIsend, k, win);
      rank.isend(comm, 1, tag, &payload[static_cast<std::size_t>(i)], sizeof(std::uint64_t),
                 sreq[static_cast<std::size_t>(i)]);
      me.spans.end(sp);
    }
    if (probe) rank.irecv(comm, 1, kUnusedTag, nullptr, 0, sreq[kWindow]);
    const int wa = me.spans.begin(SpanName::kWaitAll, k, win);
    rank.wait_all(sptr.data(), total);
    me.spans.end(wa);
    for (std::size_t i = 0; i < total; ++i) check_settle(me, sreq[i]);
    me.inflight.store(0, std::memory_order_relaxed);
    const int ar = me.spans.begin(SpanName::kIrecv, k, win);
    rank.irecv(comm, 1, kAckTagBase + tag, nullptr, 0, acks[k % kCredit]);
    me.spans.end(ar);
    me.spans.end(win);
  }
  me.final_units.store(k, std::memory_order_release);
  me.spans.set_sampling(false);
  for (std::uint64_t j = k >= kCredit ? k - kCredit : 0; j < k; ++j) {
    wait_ack(acks[j % kCredit], j, -1);
  }
}

/// Check one received 8-byte payload against the expected sequence of the
/// sender it names. A mismatch consumes the expected slot, so one bad
/// message is one failure, not a cascade.
bool verify_payload(Run& run, Worker& me, const Request& r, std::uint64_t word,
                    std::vector<std::uint64_t>& next_seq, int only_sender) {
  if (r.failed()) {
    note_failure(me, r.error());
    return false;
  }
  const std::uint64_t sender = word >> 56;
  const bool known = sender < next_seq.size() &&
                     (only_sender < 0 || sender == static_cast<std::uint64_t>(only_sender));
  const std::size_t slot = known ? static_cast<std::size_t>(sender)
                                 : static_cast<std::size_t>(only_sender < 0 ? 0 : only_sender);
  const std::uint64_t want = next_seq[slot]++;
  const bool ok = known && r.status().size == sizeof(std::uint64_t) && !r.status().truncated &&
                  ((word & kSeqMask) ^ seq_key(run.opt.seed, sender)) == want;
  if (!ok) ++me.mismatches;
  return ok;
}

/// Post `n` receives (plus, on receiver 0, the fail_settle / hang probe in
/// window kInjectAt / kWindow), wait for them and check every one. Returns
/// the verified count.
std::uint64_t receive_window(Run& run, Worker& me, Rank& rank, CommId comm, int src, int tag,
                             int n, std::uint64_t unit, std::vector<Request>& req,
                             std::vector<Request*>& ptr, std::vector<std::uint64_t>& buf,
                             std::vector<std::uint64_t>& next_seq, int only_sender) {
  const int iv = run.interval.load(std::memory_order_relaxed);
  const bool probe = unit == kInjectAt / kWindow && me.role.index == 0 &&
                     (run.opt.inject == Inject::kFailSettle || run.opt.inject == Inject::kHang);
  const int total = n + (probe ? 1 : 0);
  me.inflight.store(static_cast<std::uint64_t>(total), std::memory_order_relaxed);
  me.attempted += static_cast<std::uint64_t>(n);
  const std::uint64_t t0 = fairmpi::now_ns();
  const int win = me.spans.begin(SpanName::kWindow, unit, -1);
  for (int i = 0; i < n; ++i) {
    const int sp = me.spans.begin(SpanName::kIrecv, unit, win);
    rank.irecv(comm, src, tag, &buf[static_cast<std::size_t>(i)], sizeof(std::uint64_t),
               req[static_cast<std::size_t>(i)]);
    me.spans.end(sp);
  }
  if (probe) {
    Request& extra = req[static_cast<std::size_t>(n)];
    rank.irecv(comm, src, kUnusedTag, nullptr, 0, extra);
    if (run.opt.inject == Inject::kFailSettle) extra.cancel();
  }
  const int wa = me.spans.begin(SpanName::kWaitAll, unit, win);
  rank.wait_all(ptr.data(), static_cast<std::size_t>(total));
  me.spans.end(wa);
  const std::uint64_t t1 = fairmpi::now_ns();
  std::uint64_t good = 0;
  for (int i = 0; i < n; ++i) {
    if (verify_payload(run, me, req[static_cast<std::size_t>(i)],
                       buf[static_cast<std::size_t>(i)], next_seq, only_sender)) {
      ++good;
    }
  }
  if (probe) check_settle(me, req[static_cast<std::size_t>(n)]);
  me.spans.end(win);
  me.inflight.store(0, std::memory_order_relaxed);
  if (n == kWindow) record_latency(me, iv, t1 - t0);
  return good;
}

/// Wait for a window ack the receiver sent earlier and check its settle.
void wait_ack_sent(Worker& me, Rank& rank, Request& ack) {
  me.inflight.store(1, std::memory_order_relaxed);
  rank.wait(ack);
  me.inflight.store(0, std::memory_order_relaxed);
  check_settle(me, ack);
}

void pairwise_receiver(Run& run, Worker& me, Worker& sender) {
  Rank& rank = run.uni->rank(1);
  const CommId comm = run.comms[static_cast<std::size_t>(me.role.index)];
  const int tag = me.role.index;
  std::vector<Request> req(kWindow + 1);
  std::vector<Request*> ptr;
  for (auto& r : req) ptr.push_back(&r);
  std::vector<std::uint64_t> buf(kWindow);
  std::vector<std::uint64_t> next_seq(2, 0);
  Request acks[kCredit];
  fairmpi::SpinWait idle;
  for (std::uint64_t k = 0;; ++k) {
    // Post window k only once the sender has committed to sending it.
    for (;;) {
      if (sender.committed.load(std::memory_order_acquire) > k) break;
      const std::uint64_t f = sender.final_units.load(std::memory_order_acquire);
      if (f != kUnset && k >= f) {
        for (Request& a : acks) {
          if (a.kind() != Request::Kind::kNone) wait_ack_sent(me, rank, a);  // kNone: never sent
        }
        return;
      }
      idle.pause();
    }
    idle.reset();
    me.spans.set_sampling(run.traced && k % run.wl->sample_every == 0);
    const std::uint64_t good = receive_window(run, me, rank, comm, 0, tag, kWindow, k, req, ptr,
                                              buf, next_seq, me.role.index);
    me.verified.store(me.verified.load(std::memory_order_relaxed) + good,
                      std::memory_order_relaxed);
    Request& ack = acks[k % kCredit];
    if (ack.kind() != Request::Kind::kNone) wait_ack_sent(me, rank, ack);
    rank.isend(comm, 0, kAckTagBase + tag, nullptr, 0, ack);
  }
}

void incast_sender(Run& run, Worker& me, IncastFlow& flow) {
  Rank& rank = run.uni->rank(0);
  const std::uint64_t sender_id = static_cast<std::uint64_t>(me.role.index);
  Request req;
  std::uint64_t word = 0;
  fairmpi::SpinWait w;
  std::uint64_t seq = 0;
  for (;;) {
    if (run.stop.load(std::memory_order_acquire)) break;
    if (flow.injected.load(std::memory_order_relaxed) -
            flow.consumed.load(std::memory_order_acquire) >= kIncastInFlight) {
      w.pause();
      continue;
    }
    w.reset();
    std::uint64_t s = seq;
    if (run.opt.inject == Inject::kCorrupt && sender_id == 0 && s == kInjectAt) ++s;
    word = encode(run.opt.seed, sender_id, s);
    me.spans.set_sampling(run.traced && seq % run.wl->sample_every == 0);
    const int sp = me.spans.begin(SpanName::kIsend, seq, -1);
    me.inflight.store(1, std::memory_order_relaxed);
    rank.isend(fairmpi::kWorldComm, 1, kIncastTag, &word, sizeof word, req);
    me.inflight.store(0, std::memory_order_relaxed);
    me.spans.end(sp);
    check_settle(me, req);
    // Commit once injected (an eager send completes at injection): the
    // receiver posts only for messages already in the fabric, so a window's
    // latency is the receiver's own cost, not the senders' pace.
    me.committed.store(++seq, std::memory_order_release);
    flow.injected.fetch_add(1, std::memory_order_relaxed);
  }
  me.final_units.store(seq, std::memory_order_release);
}

void incast_receiver(Run& run, Worker& me, std::vector<Worker*> senders, IncastFlow& flow) {
  Rank& rank = run.uni->rank(1);
  std::vector<Request> req(kWindow + 1);
  std::vector<Request*> ptr;
  for (auto& r : req) ptr.push_back(&r);
  std::vector<std::uint64_t> buf(kWindow);
  std::vector<std::uint64_t> next_seq(senders.size(), 0);
  std::uint64_t received = 0;
  fairmpi::SpinWait idle;
  for (std::uint64_t k = 0;; ++k) {
    std::uint64_t committed = 0;
    bool all_final = true;
    for (;;) {
      committed = 0;
      all_final = true;
      // Read final before committed: a final sender's count no longer moves.
      for (Worker* s : senders) {
        all_final = all_final && s->final_units.load(std::memory_order_acquire) != kUnset;
        committed += s->committed.load(std::memory_order_acquire);
      }
      if (committed > received || all_final) break;
      idle.pause();
    }
    idle.reset();
    const int n = static_cast<int>(std::min<std::uint64_t>(kWindow, committed - received));
    if (n == 0) return;  // all senders final and everything received
    me.spans.set_sampling(run.traced && k % run.wl->sample_every == 0);
    const std::uint64_t good = receive_window(run, me, rank, fairmpi::kWorldComm, 0, kIncastTag,
                                              n, k, req, ptr, buf, next_seq, -1);
    received += static_cast<std::uint64_t>(n);
    flow.consumed.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_release);
    me.verified.store(me.verified.load(std::memory_order_relaxed) + good,
                      std::memory_order_relaxed);
  }
}

void allreduce_worker(Run& run, Worker& me) {
  const int r = me.role.rank;
  const int t = me.role.index;
  fairmpi::Communicator comm = run.uni->rank(r).comm(run.comms[static_cast<std::size_t>(t)]);
  PairGate& gate = *run.gates[static_cast<std::size_t>(t)];
  std::vector<std::uint64_t> out(run.count);
  std::vector<std::uint64_t> corrupt;
  const bool corrupts = run.opt.inject == Inject::kCorrupt && r == 0 && t == 0;
  for (std::uint64_t i = 0;; ++i) {
    if (!gate.may_start(r, i, run.stop.load(std::memory_order_acquire))) break;
    const std::uint64_t k = i % run.nbufs;
    const std::vector<std::uint64_t>& in_buf =
        run.inputs[static_cast<std::size_t>((r * 2 + t) * static_cast<int>(run.nbufs)) + k];
    const std::uint64_t* in = in_buf.data();
    if (corrupts && i == kInjectAt) {
      corrupt = in_buf;
      corrupt[0] ^= 1;
      in = corrupt.data();
    }
    const int iv = run.interval.load(std::memory_order_relaxed);
    me.spans.set_sampling(run.traced && i % run.wl->sample_every == 0);
    me.inflight.store(1, std::memory_order_relaxed);
    ++me.attempted;
    const std::uint64_t t0 = fairmpi::now_ns();
    const int sp = me.spans.begin(SpanName::kAllreduce, i, -1);
    const ErrorCode rc = fairmpi::coll::allreduce(comm, in, out.data(), run.count,
                                                  fairmpi::coll::ReduceOp::kSum);
    me.spans.end(sp);
    const std::uint64_t t1 = fairmpi::now_ns();
    me.inflight.store(0, std::memory_order_relaxed);
    if (rc != ErrorCode::kOk) {
      note_failure(me, rc);
    } else if (std::memcmp(out.data(),
                           run.expected[static_cast<std::size_t>(t) * run.nbufs + k].data(),
                           run.count * sizeof(std::uint64_t)) != 0) {
      ++me.mismatches;
    } else {
      me.verified.store(me.verified.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    }
    record_latency(me, iv, t1 - t0);
  }
}

/// Allreduce inputs for every (rank, thread) and their expected sums, from
/// the seed. A few distinct buffers per thread, reused round-robin, keep
/// generating 1 MiB inputs out of the timed loop.
void make_allreduce_data(Run& run) {
  run.count = run.wl->allreduce_bytes / sizeof(std::uint64_t);
  run.nbufs = run.wl->allreduce_bytes <= 64 ? 64 : 4;
  for (int r = 0; r < 2; ++r) {
    for (int t = 0; t < 2; ++t) {
      for (std::uint64_t k = 0; k < run.nbufs; ++k) {
        std::vector<std::uint64_t> b(run.count);
        for (std::size_t j = 0; j < run.count; ++j) b[j] = allreduce_input(run.opt.seed, r, t, k, j);
        run.inputs.push_back(std::move(b));
      }
    }
  }
  for (int t = 0; t < 2; ++t) {
    for (std::uint64_t k = 0; k < run.nbufs; ++k) {
      const auto& a = run.inputs[static_cast<std::size_t>(t) * run.nbufs + k];
      const auto& b = run.inputs[static_cast<std::size_t>(2 + t) * run.nbufs + k];
      std::vector<std::uint64_t> e(run.count);
      for (std::size_t j = 0; j < run.count; ++j) e[j] = a[j] + b[j];
      run.expected.push_back(std::move(e));
    }
  }
  for (int t = 0; t < 2; ++t) run.gates.push_back(std::make_unique<PairGate>());
}

void worker_main(Run& run, int w, int pos) {
  Worker& me = *run.workers[static_cast<std::size_t>(w)];
  if (pin_to(me.cpu) != 0) die(3, "cannot pin worker to its CPU");
  me.cpu_seen = sched_getcpu();
  run.pinned.fetch_add(1, std::memory_order_acq_rel);
  run.pinned.notify_all();
  setup_touches(run, me, pos);
  run.go.wait(false, std::memory_order_acquire);

  switch (run.wl->kind) {
    case Kind::kPairwise:
      if (me.role.sender) {
        pairwise_sender(run, me, static_cast<std::uint64_t>(me.role.index));
      } else {
        // The pair's sender is the worker with the same pair index.
        for (auto& other : run.workers) {
          if (other->role.sender && other->role.index == me.role.index) {
            pairwise_receiver(run, me, *other);
          }
        }
      }
      break;
    case Kind::kIncast:
      if (me.role.sender) {
        incast_sender(run, me, run.incast);
      } else {
        std::vector<Worker*> senders;
        for (auto& other : run.workers) {
          if (other->role.sender) senders.push_back(other.get());
        }
        incast_receiver(run, me, senders, run.incast);
      }
      break;
    case Kind::kAllreduce:
      allreduce_worker(run, me);
      break;
  }
  me.cri_after = run.uni->rank(me.role.rank).pool().id_for_thread();
  me.finished.store(true, std::memory_order_release);
}

// ------------------------------------------------------------ reporting

std::string read_first_line_with(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t colon = line.find(':');
      std::string v = colon == std::string::npos ? line : line.substr(colon + 1);
      const std::size_t b = v.find_first_not_of(" \t");
      return b == std::string::npos ? "" : v.substr(b);
    }
  }
  return "unknown";
}

std::string read_file_trim(const char* path) {
  std::ifstream in(path);
  std::string s;
  if (!std::getline(in, s)) return "unknown";
  return s;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.10g", v);
  return b;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct ObsState {
  fairmpi::spc::Snapshot spc;
  std::map<std::string, fairmpi::obs::ClassContention> locks;
  std::uint64_t orphan_sweeps = 0;
  std::uint64_t own_trylock_misses = 0;
};

ObsState obs_state(Universe& uni) {
  ObsState s;
  for (int r = 0; r < uni.num_ranks(); ++r) {
    s.spc.merge(uni.rank(r).counters().lifetime_snapshot());
    fairmpi::cri::CriPool& pool = uni.rank(r).pool();
    for (int i = 0; i < pool.size(); ++i) {
      const fairmpi::obs::InstanceUtilization u = pool.instance(i).stats().snapshot();
      s.orphan_sweeps += u.orphan_sweeps;
      s.own_trylock_misses += u.own_trylock_misses;
    }
  }
  for (const auto& c : fairmpi::obs::contention_snapshot()) {
    auto& acc = s.locks[c.name];
    acc.acquires += c.acquires;
    acc.wait_ns += c.wait_ns;
  }
  return s;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) die(2, "missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") opt.workload = val();
    else if (a == "--seed") opt.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(val().c_str());
    else if (a == "--trace-out") opt.trace_out = val();
    else if (a == "--ft") opt.ft = true;
    else if (a == "--inject") {
      const std::string v = val();
      if (v == "corrupt") opt.inject = Inject::kCorrupt;
      else if (v == "fail_settle") opt.inject = Inject::kFailSettle;
      else if (v == "wrong_binding") opt.inject = Inject::kWrongBinding;
      else if (v == "hang") opt.inject = Inject::kHang;
      else if (v == "hang_sender") opt.inject = Inject::kHangSender;
      else die(2, "unknown --inject " + v);
    } else {
      die(2, "unknown argument " + a);
    }
  }
  if (!(opt.seconds > 0.0)) {
    die(2, "bad --seconds");
  }
  return opt;
}

/// Per-repetition set-up times.
struct SetupTimes {
  std::vector<double> total_s, universe_ns, comm_ns, touch_ns;
};

/// Set-up, repeated: universe, communicators, sequenced first touch. The
/// last repetition's universe is the one the workload runs on.
SetupTimes run_setups(Run& run, const Config& cfg) {
  const int nw = static_cast<int>(run.workers.size());
  const int ncomms = run.wl->kind == Kind::kIncast ? 0 : 2;
  SetupTimes st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = fairmpi::now_ns();
    auto u = std::make_unique<Universe>(cfg);
    const std::uint64_t t1 = fairmpi::now_ns();
    std::vector<CommId> comms;
    for (int c = 0; c < ncomms; ++c) comms.push_back(u->create_communicator());
    const std::uint64_t t2 = fairmpi::now_ns();
    run.setup_uni.store(u.get(), std::memory_order_release);
    publish(run.turn, rep * 64);
    wait_for(run.turn, rep * 64 + nw);
    // First touch is the sum of the touch calls themselves: the hand-offs
    // between workers are futex wake-ups, scheduler time not set-up work.
    std::uint64_t touch = 0;
    for (const auto& w : run.workers) touch += w->touch_ns;
    st.total_s.push_back(static_cast<double>(t2 - t0 + touch) * 1e-9);
    st.universe_ns.push_back(static_cast<double>(t1 - t0));
    st.comm_ns.push_back(static_cast<double>(t2 - t1));
    st.touch_ns.push_back(static_cast<double>(touch));
    if (rep + 1 == kSetupReps) {
      run.uni = std::move(u);
      run.comms = std::move(comms);
    } else {
      // Hand the freed universe back to the OS, so the next set-up pays its
      // page faults as a process's first does. Without this, set-ups after
      // the first flip between faulting (~2.3 ms) and reusing freed memory
      // (~0.5 ms) in no fixed pattern and the median lands in either mode.
      u.reset();
      malloc_trim(0);
    }
  }
  return st;
}

/// Verified units so far: messages at the receivers, collectives on rank 0.
std::uint64_t units_done(const Run& run) {
  std::uint64_t n = 0;
  for (const auto& w : run.workers) {
    const bool counts =
        run.wl->kind == Kind::kAllreduce ? w->role.rank == 0 : !w->role.sender;
    if (counts) n += w->verified.load(std::memory_order_relaxed);
  }
  return n;
}

/// What the timed region measured.
struct Timed {
  ObsState before, after;
  std::vector<double> interval_rates;
  std::uint64_t units = 0;  ///< verified units delivered while timing
  double seconds = 0.0;
};

/// Warm up, then time `intervals` equal intervals, sampling the verified
/// counters at each boundary. The coordinating thread only sleeps here.
Timed time_run(Run& run, int intervals) {
  run.go.store(true, std::memory_order_release);
  run.go.notify_all();
  std::this_thread::sleep_for(std::chrono::duration<double>(std::max(0.2, kWarmupShare * run.opt.seconds)));
  Timed t;
  t.before = obs_state(*run.uni);
  const double interval_s = run.opt.seconds / intervals;
  run.interval.store(0, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t units_start = units_done(run);
  std::uint64_t prev_units = units_start;
  auto prev = start;
  for (int k = 1; k <= intervals; ++k) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                              std::chrono::duration<double>(k * interval_s)));
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t u = units_done(run);
    run.interval.store(k < intervals ? k : -1, std::memory_order_relaxed);
    t.interval_rates.push_back(static_cast<double>(u - prev_units) /
                               std::chrono::duration<double>(now - prev).count());
    prev_units = u;
    prev = now;
  }
  t.after = obs_state(*run.uni);
  t.units = prev_units - units_start;
  t.seconds = std::chrono::duration<double>(prev - start).count();
  run.stop.store(true, std::memory_order_release);
  return t;
}

/// Wait for every worker until the wall-clock limit; false when it hit.
bool join_by(Run& run, std::vector<std::thread>& threads, std::uint64_t limit_ns) {
  for (;;) {
    bool all = true;
    for (auto& w : run.workers) all = all && w->finished.load(std::memory_order_acquire);
    if (all) break;
    if (fairmpi::now_ns() > limit_ns) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : threads) t.join();
  return true;
}

const char* role_name(const Run& run, const Worker& w) {
  if (run.wl->kind == Kind::kAllreduce) return "thread";
  return w.role.sender ? "sender" : "receiver";
}

std::string host_json(std::size_t cpus_allowed) {
  std::ostringstream h;
  h << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpus_allowed\":" << cpus_allowed
    << ",\"cpu_model\":" << json_str(read_first_line_with("/proc/cpuinfo", "model name"))
    << ",\"llc\":" << json_str(read_file_trim("/sys/devices/system/cpu/cpu0/cache/index3/size"))
    << ",\"build_type\":" << json_str(BENCH_BUILD_TYPE) << ",\"compiler\":" << json_str(__VERSION__)
    << "}";
  return h.str();
}

std::string placement_json(const Run& run) {
  std::ostringstream p;
  for (std::size_t w = 0; w < run.workers.size(); ++w) {
    const Worker& wk = *run.workers[w];
    p << (w ? "," : "") << "{\"worker\":" << w << ",\"role\":\"" << role_name(run, wk)
      << "\",\"index\":" << wk.role.index << ",\"rank\":" << wk.role.rank << ",\"cpu\":" << wk.cpu
      << ",\"cpu_seen\":" << wk.cpu_seen << ",\"cri\":" << wk.cri_touch
      << ",\"cri_expected\":" << wk.role.cri << "}";
  }
  return "[" + p.str() + "]";
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

/// Per-layer report of the traced run: engine counters over the timed
/// region divided by the verified units it delivered (messages, or
/// allreduce calls on both ranks), span percentiles and self times from the
/// sampled units, and the set-up breakdown.
std::string layer_report(const Run& run, const Timed& t, const SetupTimes& st,
                         const std::vector<bench::TrackRef>& tracks) {
  const fairmpi::spc::Snapshot d = t.after.spc.delta_since(t.before.spc);
  std::vector<bench::SpanStats> spans = bench::span_stats(tracks);
  const auto S = [&](SpanName n) -> bench::SpanStats& {
    return spans[static_cast<std::size_t>(n)];
  };
  const double units = static_cast<double>(
      run.wl->kind == Kind::kAllreduce ? d.get(Counter::kCollOps) : t.units);
  const double base = std::max(units, 1.0);
  const auto count = [&](Counter c) { return static_cast<double>(d.get(c)); };
  const auto per = [&](Counter c) { return count(c) / base; };
  std::ostringstream l;
  const auto layer = [&](const std::string& name, double v) {
    l << (l.tellp() > 0 ? "," : "") << "\"" << name << "\":" << num(v);
  };
  const auto span_layer = [&](const char* name, SpanName n, bool self, double q) {
    layer(name, bench::quantile(self ? S(n).self : S(n).dur, q));
  };

  layer("base.units", units);
  span_layer("isend.p50_ns", SpanName::kIsend, false, 0.5);
  span_layer("isend.p99_ns", SpanName::kIsend, false, 0.99);
  layer("isend.samples", static_cast<double>(S(SpanName::kIsend).dur.size()));
  layer("cri.submit_queued_per_msg", per(Counter::kSubmitQueued));
  layer("cri.submit_cas_retries_per_msg", per(Counter::kSubmitCasRetries));
  layer("fabric.backpressure_per_msg", per(Counter::kSendBackpressure));

  span_layer("irecv.p50_ns", SpanName::kIrecv, false, 0.5);
  layer("irecv.samples", static_cast<double>(S(SpanName::kIrecv).dur.size()));
  layer("match.ns_per_msg", per(Counter::kMatchTimeNs));
  layer("match.attempts_per_msg", per(Counter::kMatchAttempts));
  layer("match.oos_per_msg", per(Counter::kOutOfSequence));
  layer("match.unexpected_per_msg", per(Counter::kUnexpectedMessages));
  layer("match.unexpected_depth_per_search",
        count(Counter::kUnexpectedQueueDepth) / std::max(1.0, count(Counter::kMatchAttempts)));
  layer("match.searches", count(Counter::kMatchAttempts));

  const bench::SpanStats& pr = S(SpanName::kProgress);
  span_layer("progress.p50_ns", SpanName::kProgress, false, 0.5);
  layer("progress.empty_frac", pr.dur.empty() ? 0.0
                                              : static_cast<double>(pr.calls_returning_zero) /
                                                    static_cast<double>(pr.dur.size()));
  layer("progress.samples", static_cast<double>(pr.dur.size()));
  layer("progress.calls_per_msg", per(Counter::kProgressCalls));
  layer("progress.calls", count(Counter::kProgressCalls));
  layer("cri.trylock_fail_per_msg", per(Counter::kInstanceTrylockFail));
  layer("cri.orphan_sweeps_per_msg",
        static_cast<double>(t.after.orphan_sweeps - t.before.orphan_sweeps) / base);
  // Every concurrent-mode progress call tries its own CRI once.
  const bool concurrent = run.wl->cfg.progress_mode == fairmpi::progress::ProgressMode::kConcurrent;
  layer("cri.own_trylock_miss_frac",
        concurrent ? static_cast<double>(t.after.own_trylock_misses - t.before.own_trylock_misses) /
                         std::max(1.0, count(Counter::kProgressCalls))
                   : 0.0);

  span_layer("wait_all.self_p50_ns", SpanName::kWaitAll, true, 0.5);
  span_layer("wait_all.self_p99_ns", SpanName::kWaitAll, true, 0.99);
  layer("wait_all.samples", static_cast<double>(S(SpanName::kWaitAll).self.size()));

  layer("rel.acks_per_msg", per(Counter::kAcksSent));
  layer("rel.retransmits_per_msg", per(Counter::kRetransmits));
  layer("rel.dup_discards_per_msg", per(Counter::kDupDiscards));

  span_layer("allreduce.self_p50_ns", SpanName::kAllreduce, true, 0.5);
  layer("allreduce.samples", static_cast<double>(S(SpanName::kAllreduce).self.size()));
  const double ops = count(Counter::kCollOps);
  layer("coll.ops", ops);
  layer("coll.rounds_per_op", count(Counter::kCollRounds) / std::max(1.0, ops));
  layer("coll.segments_per_op", count(Counter::kCollSegments) / std::max(1.0, ops));
  layer("coll.lane_waits_per_op", count(Counter::kCollLaneWaits) / std::max(1.0, ops));
  layer("fabric.bytes_per_op", ops == 0 ? 0.0 : count(Counter::kBytesSent) / ops);
  layer("payload_pool.peak_bytes",
        static_cast<double>(fairmpi::fabric::payload_pool_stats().high_water_bytes));

  for (const char* cls : {"cri.instance", "match.engine", "progress.serial-gate",
                          "rank.rndv-control"}) {
    const auto delta = [&](auto field) {
      const auto b = t.before.locks.find(cls);
      const auto a = t.after.locks.find(cls);
      const std::uint64_t v0 = b == t.before.locks.end() ? 0 : b->second.*field;
      const std::uint64_t v1 = a == t.after.locks.end() ? 0 : a->second.*field;
      return static_cast<double>(v1 - v0) / base;
    };
    layer(std::string("lock.") + cls + ".acq_per_msg", delta(&fairmpi::obs::ClassContention::acquires));
    layer(std::string("lock.") + cls + ".wait_ns_per_msg", delta(&fairmpi::obs::ClassContention::wait_ns));
  }

  layer("setup.universe_ns", fastest(st.universe_ns));
  layer("setup.comm_create_ns", fastest(st.comm_ns));
  layer("setup.first_touch_ns", fastest(st.touch_ns));

  // The part of each sampled window that none of its child spans covers:
  // the driver's own loop and checking, plus anything the public calls do
  // not show.
  const bench::SpanStats& win = S(SpanName::kWindow);
  std::uint64_t win_total = 0, win_self = 0;
  for (std::size_t i = 0; i < win.dur.size(); ++i) {
    win_total += win.dur[i];
    win_self += win.self[i];
  }
  layer("window.residual_frac",
        win_total == 0 ? 0.0 : static_cast<double>(win_self) / static_cast<double>(win_total));
  span_layer("window.self_p50_ns", SpanName::kWindow, true, 0.5);
  std::uint64_t dropped = 0;
  for (const auto& w : run.workers) dropped += w->spans.dropped();
  layer("trace.spans_dropped", static_cast<double>(dropped));
  return "{" + l.str() + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const std::vector<Workload> all = workloads();
  const Workload* wl = nullptr;
  for (const Workload& w : all) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) die(2, "unknown --workload '" + opt.workload + "'");
  const double limit_s = 2.0 * opt.seconds + 30.0;
  const std::uint64_t limit_ns = fairmpi::now_ns() + static_cast<std::uint64_t>(limit_s * 1e9);

  // The engine reads FAIRMPI_* overrides in its constructor; a workload is
  // only the workload when none is set.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FAIRMPI_", 8) == 0) die(3, std::string("refusing: ") + *e + " is set");
  }

  // Placement: worker w runs on the w-th CPU this process may use.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (wl->roles.size() > cpus.size()) {
    die(3, "refusing to oversubscribe: " + std::to_string(wl->roles.size()) +
               " worker threads, " + std::to_string(cpus.size()) + " CPUs");
  }

  Run run;
  run.wl = wl;
  run.opt = opt;
  run.traced = !opt.trace_out.empty();
  Config cfg = wl->cfg;
  // The traced run turns on obs (lock-class and per-CRI counters) but not
  // the engine's event ring: every ring record is an RMW on one shared
  // per-rank cursor, which alone halves the pairwise rate on 4 threads.
  if (run.traced) cfg.obs_enabled = true;
  if (opt.ft) {
    cfg.reliable = true;
    cfg.ft_enabled = true;
  }
  if (wl->kind == Kind::kAllreduce) make_allreduce_data(run);

  const int intervals = std::max(4, static_cast<int>(opt.seconds / kIntervalS));
  const std::size_t nw = wl->roles.size();
  for (std::size_t w = 0; w < nw; ++w) {
    auto wk = std::make_unique<Worker>();
    wk->role = wl->roles[w];
    wk->cpu = cpus[w];
    wk->lat_ns.assign(static_cast<std::size_t>(intervals) * kLatPerInterval, 0);
    wk->lat_seen.assign(static_cast<std::size_t>(intervals), 0);
    wk->lat_rng = splitmix64(opt.seed ^ (0xA5A5ull << 32) ^ w);
    if (run.traced) wk->spans.reserve(kSpanCapacity);
    run.workers.push_back(std::move(wk));
  }
  std::vector<int> order = wl->touch_order;
  if (opt.inject == Inject::kWrongBinding) std::swap(order[order.size() - 2], order.back());
  std::vector<std::thread> threads;
  for (std::size_t pos = 0; pos < nw; ++pos) {
    threads.emplace_back(worker_main, std::ref(run), order[pos], static_cast<int>(pos));
  }
  wait_for(run.pinned, static_cast<int>(nw));
  const SetupTimes setup = run_setups(run, cfg);

  // Placement record and binding check, before anything is timed.
  int bad_bindings = 0;
  for (const auto& w : run.workers) bad_bindings += w->binding_mismatches;
  std::ostringstream out;
  out << "{\"workload\":" << json_str(wl->name) << ",\"ft\":" << (opt.ft ? "true" : "false")
      << ",\"seed\":" << opt.seed << ",\"seconds\":" << num(opt.seconds)
      << ",\"traced\":" << (run.traced ? "true" : "false") << ",\"host\":" << host_json(cpus.size())
      << ",\"placement\":" << placement_json(run);
  if (bad_bindings != 0) {
    std::cout << out.str() << ",\"binding_ok\":false,\"correct\":false,\"attempted\":"
              << bad_bindings << ",\"failed\":" << bad_bindings << "}" << std::endl;
    std::fprintf(stderr, "bench_e2e: refusing: CRI binding differs from the workload's\n");
    std::_Exit(3);  // workers wait on `go`; nothing to drain
  }

  const Timed timed = time_run(run, intervals);
  if (!join_by(run, threads, limit_ns)) {
    // Hang guard: stuck workers cannot be joined and their plain fields are
    // still being written; count what the atomics say and leave.
    std::uint64_t unfinished = 0, attempted = 0;
    for (const auto& w : run.workers) {
      unfinished += w->inflight.load(std::memory_order_relaxed);
      attempted += w->verified.load(std::memory_order_relaxed);
    }
    std::cout << out.str() << ",\"binding_ok\":true,\"hang\":true,\"correct\":false,\"attempted\":"
              << std::max<std::uint64_t>(attempted + unfinished, 1) << ",\"failed\":" << unfinished
              << ",\"unfinished\":" << unfinished << "}" << std::endl;
    std::fprintf(stderr, "bench_e2e: time limit of %.1f s hit; %llu ops unfinished\n",
                 limit_s, static_cast<unsigned long long>(unfinished));
    std::_Exit(4);
  }

  std::uint64_t attempted = 0, failed_settle = 0, mismatches = 0;
  int late_bindings = 0;
  ErrorCode first_error = ErrorCode::kOk;
  // Latency quantiles per timed interval; the run reports their medians, so
  // a burst of interference from outside moves one interval, not the result.
  std::vector<std::vector<std::uint64_t>> lat(static_cast<std::size_t>(intervals));
  std::size_t lat_samples = 0;
  for (const auto& w : run.workers) {
    attempted += w->attempted;
    failed_settle += w->failed_settle;
    mismatches += w->mismatches;
    late_bindings += w->cri_after != w->role.cri ? 1 : 0;
    if (first_error == ErrorCode::kOk) first_error = w->first_error;
    for (std::size_t iv = 0; iv < lat.size(); ++iv) {
      const auto first = w->lat_ns.begin() + static_cast<std::ptrdiff_t>(iv * kLatPerInterval);
      const std::size_t kept = std::min<std::uint64_t>(w->lat_seen[iv], kLatPerInterval);
      lat[iv].insert(lat[iv].end(), first, first + static_cast<std::ptrdiff_t>(kept));
      lat_samples += kept;
    }
  }
  const std::uint64_t failed =
      failed_settle + mismatches + static_cast<std::uint64_t>(late_bindings);
  const bool correct = failed == 0;

  // End-to-end metrics, named as in README.md, plus the per-interval series
  // behind each median (for diagnosing spread).
  std::ostringstream m, series;
  const auto metric = [&](const char* name, double v, const char* unit) {
    m << (m.tellp() > 0 ? "," : "") << "\"" << name << "\":{\"value\":" << num(v)
      << ",\"unit\":\"" << unit << "\"}";
  };
  const auto lat_us = [&](double q) {
    std::vector<double> per_interval;
    for (auto& v : lat) {
      if (!v.empty()) per_interval.push_back(bench::quantile(v, q) / 1e3);
    }
    series << ",\"interval_q" << static_cast<int>(q * 100) << "_us\":" << json_array(per_interval);
    return median(per_interval);
  };
  const double rate = median(timed.interval_rates);
  series << ",\"interval_rates\":" << json_array(timed.interval_rates);
  if (wl->kind == Kind::kAllreduce) {
    const bool small = wl->allreduce_bytes <= 64;
    metric("allreduce_rate", rate, "1/s");
    metric(small ? "allreduce_8B_p50_us" : "allreduce_1MiB_p50_us", lat_us(0.5), "us");
    metric(small ? "allreduce_8B_p99_us" : "allreduce_1MiB_p90_us", lat_us(small ? 0.99 : 0.90),
           "us");
  } else {
    metric("msg_rate", rate, "msg/s");
    metric("window_p50_us", lat_us(0.5), "us");
    metric("window_p90_us", lat_us(0.9), "us");
    metric("window_p99_us", lat_us(0.99), "us");
  }
  metric("setup_s", fastest(setup.total_s), "s");
  metric("op_fail_ratio",
         static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
         "1");
  metric("peak_rss_mib", peak_rss_mib(), "MiB");

  out << ",\"binding_ok\":" << (late_bindings == 0 ? "true" : "false")
      << ",\"hang\":false,\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"failed_settle\":" << failed_settle
      << ",\"first_error\":" << json_str(fairmpi::common::error_code_name(first_error))
      << ",\"mismatches\":" << mismatches << ",\"unfinished\":0"
      << ",\"latency_samples\":" << lat_samples << ",\"timed_s\":" << num(timed.seconds)
      << series.str() << ",\"metrics\":{" << m.str() << "}";

  if (run.traced) {
    std::vector<bench::TrackRef> tracks;
    for (std::size_t w = 0; w < nw; ++w) {
      const Worker& wk = *run.workers[w];
      tracks.push_back({&wk.spans, wk.role.rank, kTraceTidBase + static_cast<int>(w),
                        std::string("bench ") + role_name(run, wk) + " " +
                            std::to_string(wk.role.index)});
    }
    out << ",\"layers\":" << layer_report(run, timed, setup, tracks);
    std::ostringstream engine;
    run.uni->export_chrome_trace(engine);
    std::ofstream f(opt.trace_out);
    if (!f) die(1, "cannot write " + opt.trace_out);
    bench::write_chrome_trace(f, engine.str(), tracks, kSpanExportCap);
    out << ",\"trace_file\":" << json_str(opt.trace_out);
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}
