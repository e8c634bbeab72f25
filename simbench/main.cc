// simdb's benchmark program. One invocation runs one workload:
//
//   simbench --workload lookup|scan|mixed --seed N --seconds S --trace 0|1
//            --data-dir DIR [--commit SHA]
//
// It generates the population and every statement from the seed, loads the
// population, drives the workload's closed-loop clients through the public
// sim::Database API for S seconds, checks every answer against the
// generator's model, and prints the workload's properties, a host record
// and, as the last line, one JSON object with the metrics. --trace 0
// reports the end-to-end metrics. --trace 1 runs the same workload untraced
// and then traced, and reports the per-layer metrics (README.md).
// Exit status: 0 when every answer was right, 1 when one was not, 2 on a
// usage or setup error (no result line).

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/database.h"
#include "exec/physical_plan.h"
#include "parser/dml_parser.h"
#include "population.h"
#include "semantics/binder.h"
#include "workloads.h"

// Allocation counter for common.allocs_per_row: a program-wide operator
// new hook, counted per thread so the untraced hot path pays no shared
// cache line.
namespace {
thread_local uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace simbench {
namespace {

namespace fs = std::filesystem;

constexpr int kDeviceSyncSamples = 40;
constexpr int kCpuCalibrationSamples = 5;
// Clients run this long before any timed phase, answers checked but not
// timed: the buffer pool and the host's caches settle after set-up.
constexpr double kWarmupSeconds = 2;

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// Latencies counted in log-spaced buckets, 64 per power of two of
// nanoseconds, so each is under 1.6% wide. The storage is fixed: the
// benchmark's own bookkeeping does not grow with throughput, and a faster
// engine does not read as a larger peak_rss_mb.
class Histogram {
 public:
  void Add(uint64_t ns) {
    ++counts_[Bucket(ns)];
    ++total_;
  }
  void Merge(const Histogram& o) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
  }
  uint64_t count() const { return total_; }
  // The q-quantile in microseconds, interpolated linearly inside its
  // bucket; 0 when empty.
  double QuantileUs(double q) const {
    double rank = q * static_cast<double>(total_);
    uint64_t below = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (static_cast<double>(below + counts_[b]) > rank) {
        double frac = (rank - static_cast<double>(below)) / counts_[b];
        return (Low(b) + frac * Width(b)) / 1000;
      }
      below += counts_[b];
    }
    return 0;
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr int kMaxLog2 = 36;  // latencies are capped at ~137 s
  static constexpr size_t kBuckets = (kMaxLog2 - kSubBits + 2) << kSubBits;

  // Values under 64 ns get a bucket each; above, a bucket is a power of
  // two (the group) split into 64 equal parts.
  static size_t Bucket(uint64_t ns) {
    ns = std::min(ns, (uint64_t{2} << kMaxLog2) - 1);
    if (ns < (1u << kSubBits)) return ns;
    int log2 = std::bit_width(ns) - 1;
    size_t group = static_cast<size_t>(log2 - kSubBits + 1);
    return (group << kSubBits) +
           ((ns >> (log2 - kSubBits)) & ((1u << kSubBits) - 1));
  }
  static double Width(size_t b) {
    size_t group = b >> kSubBits;
    return group == 0 ? 1 : static_cast<double>(uint64_t{1} << (group - 1));
  }
  static double Low(size_t b) {
    size_t group = b >> kSubBits;
    if (group == 0) return static_cast<double>(b);
    uint64_t sub = b & ((1u << kSubBits) - 1);
    return static_cast<double>(((uint64_t{1} << kSubBits) + sub)
                               << (group - 1));
  }

  std::array<uint32_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

// Statement texts one phase has sent, as bits of their hashes in a fixed
// 512 KiB bitmap the clients share. A collision counts a new text as a
// repeat: under 1.5% of new texts at mixed's ~62k distinct texts.
class SeenTexts {
 public:
  SeenTexts() : words_(kBits / 64) {}
  // True the first time the hash of `text` is seen.
  bool Insert(const std::string& text) {
    uint64_t h = std::hash<std::string>()(text) % kBits;
    std::atomic<uint64_t>& word = words_[h / 64];
    uint64_t bit = uint64_t{1} << (h % 64);
    // Hot texts only read their word: no cache line bounces between clients.
    if ((word.load(std::memory_order_relaxed) & bit) != 0) return false;
    return (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
  }

 private:
  static constexpr uint64_t kBits = uint64_t{1} << 22;
  std::vector<std::atomic<uint64_t>> words_;
};

// ----------------------------------------------------------------- spans

enum UpdateKind { kModifyDva, kModifyEva, kInsert, kDelete, kUpdateKinds };
constexpr const char* kUpdateKindName[kUpdateKinds] = {
    "modify_dva", "modify_eva", "insert", "delete"};
constexpr const char* kUpdateSpanName[kUpdateKinds] = {
    "api.update.modify_dva", "api.update.modify_eva", "api.update.insert",
    "api.update.delete"};

int UpdateKindOf(Op::Kind k) {
  switch (k) {
    case Op::Kind::kModifyDva: return kModifyDva;
    case Op::Kind::kModifyEva: return kModifyEva;
    case Op::Kind::kInsert: return kInsert;
    default: return kDelete;
  }
}

// One traced interval: name, start, end, parent span and statement id.
struct Span {
  const char* name;
  uint64_t stmt;
  int64_t parent;  // index in the same thread's span list, -1 for a root
  uint64_t start_ns;
  uint64_t end_ns;
};

// Statements completed in one slice of a phase: a second, or one round of
// a client's fixed schedule (Client::Round).
struct Window {
  uint64_t statements = 0, rows = 0;
  uint64_t first_start_ns = UINT64_MAX, last_end_ns = 0;
  Histogram query;
};

// Everything one client thread measured in one phase.
struct Samples {
  uint64_t attempted = 0, failed = 0, queries = 0, updates = 0, rows = 0;
  uint64_t engine_allocs = 0;
  uint64_t new_texts = 0;  // statements whose text the phase had not sent
  uint64_t end_ns = 0;
  std::vector<Window> windows;
  Histogram update[kUpdateKinds];
  std::vector<std::string> failures;  // the first few
  bool by_round = false;               // windows are rounds, not seconds
  // Traced phase only: the benchmark's own replay of the pipeline.
  std::vector<Span> spans;
  std::vector<double> parse_us, bind_us, optimize_us, build_us, drain_us,
      self_us;
  uint64_t plans = 0, strategies = 0, drain_rows = 0, combinations = 0;
  double drain_ns = 0, front_end_ns = 0, api_query_ns = 0;

  void Fail(const Op& op, const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why + "  <- " + op.text);
  }

  void Merge(Samples&& o) {
    attempted += o.attempted;
    failed += o.failed;
    queries += o.queries;
    updates += o.updates;
    rows += o.rows;
    engine_allocs += o.engine_allocs;
    new_texts += o.new_texts;
    end_ns = std::max(end_ns, o.end_ns);
    auto append = [](auto* to, auto& from) {
      to->insert(to->end(), std::make_move_iterator(from.begin()),
                 std::make_move_iterator(from.end()));
    };
    windows.resize(std::max(windows.size(), o.windows.size()));
    for (size_t w = 0; w < o.windows.size(); ++w) {
      windows[w].statements += o.windows[w].statements;
      windows[w].rows += o.windows[w].rows;
      windows[w].first_start_ns =
          std::min(windows[w].first_start_ns, o.windows[w].first_start_ns);
      windows[w].last_end_ns =
          std::max(windows[w].last_end_ns, o.windows[w].last_end_ns);
      windows[w].query.Merge(o.windows[w].query);
    }
    for (int k = 0; k < kUpdateKinds; ++k) update[k].Merge(o.update[k]);
    by_round = by_round || o.by_round;
    append(&failures, o.failures);
    size_t offset = spans.size();
    for (Span sp : o.spans) {
      if (sp.parent >= 0) sp.parent += static_cast<int64_t>(offset);
      spans.push_back(sp);
    }
    append(&parse_us, o.parse_us);
    append(&bind_us, o.bind_us);
    append(&optimize_us, o.optimize_us);
    append(&build_us, o.build_us);
    append(&drain_us, o.drain_us);
    append(&self_us, o.self_us);
    plans += o.plans;
    strategies += o.strategies;
    drain_rows += o.drain_rows;
    combinations += o.combinations;
    drain_ns += o.drain_ns;
    front_end_ns += o.front_end_ns;
    api_query_ns += o.api_query_ns;
  }
  Histogram AllQueries() const {
    Histogram all;
    for (const Window& w : windows) all.Merge(w.query);
    return all;
  }
  Histogram AllUpdates() const {
    Histogram all;
    for (const Histogram& h : update) all.Merge(h);
    return all;
  }
};

// Component counters, read through each module's public accessors.
struct Counters {
  uint64_t fetches = 0, misses = 0, writebacks = 0;
  uint64_t lock_acquisitions = 0, lock_waits = 0, lock_aborts = 0;
  uint64_t wal_commits = 0, wal_batches = 0, wal_pages = 0, wal_checkpoints = 0;
  uint64_t luc_mutations = 0;

  static Counters Read(sim::Database* db, sim::LucMapper* mapper) {
    Counters c;
    sim::BufferPool::Stats pool = db->buffer_pool().stats();
    c.fetches = pool.logical_fetches;
    c.misses = pool.misses;
    c.writebacks = pool.dirty_writebacks;
    const sim::LockManager::Stats& locks = db->lock_stats();
    c.lock_acquisitions = locks.acquisitions.value();
    c.lock_waits = locks.waits.value();
    c.lock_aborts = locks.deadlocks.value() + locks.timeouts.value();
    if (sim::WriteAheadLog* wal = db->wal()) {
      sim::WriteAheadLog::Stats w = wal->stats();
      c.wal_commits = w.commits;
      c.wal_batches = w.group_commit_batches;
      c.wal_pages = w.pages_appended;
      c.wal_checkpoints = w.checkpoints;
    }
    const sim::LucMapper::Stats& m = mapper->stats();
    c.luc_mutations = m.entities_created.value() + m.role_changes.value() +
                      m.fields_set.value() + m.mv_changes.value() +
                      m.eva_changes.value();
    return c;
  }
  Counters Minus(const Counters& b) const {
    Counters d;
    d.fetches = fetches - b.fetches;
    d.misses = misses - b.misses;
    d.writebacks = writebacks - b.writebacks;
    d.lock_acquisitions = lock_acquisitions - b.lock_acquisitions;
    d.lock_waits = lock_waits - b.lock_waits;
    d.lock_aborts = lock_aborts - b.lock_aborts;
    d.wal_commits = wal_commits - b.wal_commits;
    d.wal_batches = wal_batches - b.wal_batches;
    d.wal_pages = wal_pages - b.wal_pages;
    d.wal_checkpoints = wal_checkpoints - b.wal_checkpoints;
    d.luc_mutations = luc_mutations - b.luc_mutations;
    return d;
  }
};

// ---------------------------------------------------------------- phases

struct Engine {
  sim::Database* db;
  sim::LucMapper* mapper;
  sim::Optimizer* chain_optimizer;  // the benchmark's own, for the replay
  bool replay_full_pipeline;        // false: parse and bind only
};

// Runs one query through the public API; rows land in `rows`.
sim::Status RunQuery(sim::Database* db, const Op& op,
                     std::vector<sim::Row>* rows, uint64_t* allocs) {
  rows->clear();
  uint64_t a0 = t_allocs;
  if (!op.stream) {
    sim::Result<sim::ResultSet> rs = db->ExecuteQuery(op.text);
    *allocs += t_allocs - a0;
    if (!rs.ok()) return rs.status();
    *rows = std::move(rs->rows);
    return sim::Status::Ok();
  }
  sim::Result<sim::Database::Cursor> cursor = db->OpenCursor(op.text);
  *allocs += t_allocs - a0;
  if (!cursor.ok()) return cursor.status();
  sim::Row row;
  while (true) {
    a0 = t_allocs;
    sim::Result<bool> has = cursor->Next(&row);
    *allocs += t_allocs - a0;
    if (!has.ok()) return has.status();
    if (!*has) break;
    rows->push_back(row);  // a copy: `row` keeps its buffers for Next
  }
  a0 = t_allocs;
  sim::Status closed = cursor->Close();
  *allocs += t_allocs - a0;
  return closed;
}

// The benchmark's own replay of the statement pipeline on the same text,
// one child span per module entry point. Returns "" or an error.
std::string Replay(const Engine& e, const Op& op, uint64_t stmt, int64_t root,
                   Samples* s) {
  auto begin = [&](const char* name) {
    s->spans.push_back({name, stmt, root, NowNs(), 0});
    return s->spans.size() - 1;
  };
  auto end = [&](size_t span, std::vector<double>* into) {
    s->spans[span].end_ns = NowNs();
    double ns = static_cast<double>(s->spans[span].end_ns -
                                    s->spans[span].start_ns);
    if (into != nullptr) into->push_back(ns / 1000);
    return ns;
  };
  double children_ns = 0;
  size_t sp = begin("parser.parse");
  sim::Result<sim::StmtPtr> parsed = sim::DmlParser::ParseStatement(op.text);
  children_ns += end(sp, &s->parse_us);
  if (!parsed.ok()) return parsed.status().ToString();
  if (op.kind != Op::Kind::kQuery) return "";
  sp = begin("semantics.bind");
  sim::Binder binder(&e.db->catalog());
  sim::Result<sim::QueryTree> qt =
      binder.BindRetrieve(static_cast<const sim::RetrieveStmt&>(**parsed));
  children_ns += end(sp, &s->bind_us);
  if (!qt.ok()) return qt.status().ToString();
  double front_end_ns = children_ns;
  if (e.replay_full_pipeline) {
    sp = begin("optimizer.optimize");
    sim::Result<sim::AccessPlan> plan = e.chain_optimizer->Optimize(*qt);
    double opt_ns = end(sp, &s->optimize_us);
    children_ns += opt_ns;
    front_end_ns += opt_ns;
    if (!plan.ok()) return plan.status().ToString();
    ++s->plans;
    s->strategies += static_cast<uint64_t>(plan->strategies_considered);
    sp = begin("exec.plan_build");
    sim::Result<sim::PhysicalPlan> physical =
        sim::PhysicalPlan::Build(*qt, &*plan, e.mapper);
    children_ns += end(sp, &s->build_us);
    if (!physical.ok()) return physical.status().ToString();
    sp = begin("exec.drain");
    sim::ExecContext cx(&*qt, e.mapper);
    uint64_t rows = 0;
    sim::Status st = physical->root->Open(cx);
    sim::Row row;
    while (st.ok()) {
      sim::Result<bool> has = physical->root->Next(cx, &row);
      if (!has.ok()) st = has.status();
      if (!has.ok() || !*has) break;
      ++rows;
    }
    st.Update(physical->root->Close(cx));
    double drain_ns = end(sp, &s->drain_us);
    children_ns += drain_ns;
    if (!st.ok()) return st.ToString();
    s->drain_ns += drain_ns;
    s->drain_rows += rows;
    s->combinations += cx.stats.combinations_examined;
  }
  const Span& api = s->spans[root + 1];
  double api_ns = static_cast<double>(api.end_ns - api.start_ns);
  s->self_us.push_back((api_ns - children_ns) / 1000);
  s->front_end_ns += front_end_ns;
  s->api_query_ns += api_ns;
  return "";
}

// One closed-loop client until the deadline. Completed statements are
// binned into `windows` equal slices of [start, deadline), or by round
// when the client has rounds.
void ClientLoop(const Engine& e, Client* client, int thread, uint64_t start,
                uint64_t deadline, size_t windows, bool traced,
                SeenTexts* seen, Samples* s) {
  Op op;
  std::vector<sim::Row> rows;
  uint64_t stmt = static_cast<uint64_t>(thread) << 40;
  s->windows.resize(windows);
  auto window = [&](uint64_t t0, uint64_t t1) -> Window& {
    Window* w;
    if (client->Round() >= 0) {
      s->by_round = true;
      size_t r = static_cast<size_t>(client->Round());
      if (s->windows.size() <= r) s->windows.resize(r + 1);
      w = &s->windows[r];
    } else {
      uint64_t i = (t1 - start) * windows / (deadline - start);
      w = &s->windows[std::min<uint64_t>(i, windows - 1)];
    }
    w->first_start_ns = std::min(w->first_start_ns, t0);
    w->last_end_ns = std::max(w->last_end_ns, t1);
    return *w;
  };
  while (true) {
    if (NowNs() >= deadline && !client->Owes()) break;
    client->Next(&op);
    if (seen->Insert(op.text)) ++s->new_texts;
    ++s->attempted;
    ++stmt;
    int64_t root = -1;
    if (traced) {
      s->spans.push_back({"statement", stmt, -1, NowNs(), 0});
      root = static_cast<int64_t>(s->spans.size()) - 1;
      s->spans.push_back({op.kind == Op::Kind::kQuery
                              ? "api.query"
                              : kUpdateSpanName[UpdateKindOf(op.kind)],
                          stmt, root, 0, 0});
    }
    client->Before(op);
    std::string why;
    uint64_t t0 = NowNs();
    if (traced) s->spans[root + 1].start_ns = t0;
    if (op.kind == Op::Kind::kQuery) {
      sim::Status st = RunQuery(e.db, op, &rows, &s->engine_allocs);
      uint64_t t1 = NowNs();
      if (traced) s->spans[root + 1].end_ns = t1;
      if (!st.ok()) {
        why = st.ToString();
      } else {
        why = client->CheckRows(op, rows);
        if (why.empty()) {
          ++s->queries;
          s->rows += rows.size();
          Window& w = window(t0, t1);
          ++w.statements;
          w.rows += rows.size();
          w.query.Add(t1 - t0);
        }
      }
    } else {
      sim::Result<int> n = e.db->ExecuteUpdate(op.text);
      uint64_t t1 = NowNs();
      if (traced) s->spans[root + 1].end_ns = t1;
      why = n.ok() ? client->CheckUpdate(op, *n) : n.status().ToString();
      if (why.empty()) {
        ++s->updates;
        ++window(t0, t1).statements;
        s->update[UpdateKindOf(op.kind)].Add(t1 - t0);
      }
    }
    if (why.empty() && traced) why = Replay(e, op, stmt, root, s);
    if (traced) s->spans[root].end_ns = NowNs();
    if (!why.empty()) s->Fail(op, why);
    s->end_ns = NowNs();
  }
}

// The machine's CPU-time counters from /proc/stat, read every 25 ms on a
// thread of their own while a phase runs. On a shared virtual machine the
// hypervisor now and then runs other work on this guest's vCPUs, in bursts
// of seconds, and the guest counts that time as steal. A statement caught
// in such a burst reads as slow through no fault of the engine.
struct CpuTimes {
  uint64_t ns = 0, steal = 0, total = 0;
};

class StealSampler {
 public:
  explicit StealSampler(double seconds) {
    times_.reserve(static_cast<size_t>(seconds * 1000 / kPeriodMs) + 64);
    Sample();
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kPeriodMs));
        Sample();
      }
    });
  }
  // Stops the thread and hands over what it read.
  std::vector<CpuTimes> Finish() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    Sample();
    return std::move(times_);
  }

 private:
  static constexpr int kPeriodMs = 25;

  void Sample() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
    stat >> cpu;
    for (uint64_t& x : v) stat >> x;
    if (!stat || cpu != "cpu") return;
    CpuTimes t;
    t.ns = NowNs();
    t.steal = v[7];
    for (uint64_t x : v) t.total += x;
    times_.push_back(t);
  }

  std::vector<CpuTimes> times_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Share of the machine's CPU time stolen during [t0, t1], from the
// readings just outside it; 0 when there are none.
double StealShare(const std::vector<CpuTimes>& times, uint64_t t0,
                  uint64_t t1) {
  if (times.size() < 2) return 0;
  size_t a = 0, b = times.size() - 1;
  while (a + 1 < times.size() && times[a + 1].ns <= t0) ++a;
  while (b > a + 1 && times[b - 1].ns >= t1) --b;
  uint64_t total = times[b].total - times[a].total;
  return total == 0 ? 0
                    : static_cast<double>(times[b].steal - times[a].steal) /
                          static_cast<double>(total);
}

// A phase is cut into slices: seconds, or for a client with a fixed
// schedule of unequal statements its complete rounds (a second would hold
// a varying mix). Only the slices the host disturbed least count: those
// whose steal share is at most the lower quartile's or under kQuietSteal,
// so at least a quarter of them, and all of them on a quiet host. On a
// host that steals a tenth of the time, the stolen seconds of one run
// spread 0-20% and their p99 reads up to 10x that of the quiet ones.
// Rates are the kept slices' statements and rows over their time; p50 and
// p99 are taken over all the statements of the kept slices.
constexpr double kQuietSteal = 0.005;

struct Summary {
  double stmts_per_s = 0, rows_per_s = 0, query_p50_us = 0, query_p99_us = 0;
  double steal_share = 0;  // over the whole phase
  std::string slices;      // per slice: stmt/s, p99 us, steal %, * if kept
};

struct Phase {
  Samples samples;
  Counters counters;  // deltas over the phase
  uint64_t start_ns = 0, end_ns = 0;  // end_ns includes the overrun
  uint64_t slice_ns = 0;              // a by-second slice, before overrun
  std::vector<CpuTimes> cpu_times;

  Summary Summarize() const {
    struct Slice {
      const Window* w;
      double secs, steal;
    };
    std::vector<Slice> slices;
    size_t n = samples.windows.size();
    for (size_t i = 0; i < n; ++i) {
      const Window& w = samples.windows[i];
      uint64_t t0 = w.first_start_ns, t1 = w.last_end_ns;
      if (samples.by_round) {
        if (w.statements == 0) continue;
      } else {
        // Second i of the phase; the last also holds the overrun.
        t0 = start_ns + i * slice_ns;
        t1 = i + 1 == n ? end_ns : t0 + slice_ns;
      }
      slices.push_back({&w, static_cast<double>(t1 - t0) / 1e9,
                        StealShare(cpu_times, t0, t1)});
    }
    if (samples.by_round && slices.size() > 2) {
      // The first round may have begun in an earlier phase, the last was
      // cut short by the deadline.
      slices = std::vector<Slice>(slices.begin() + 1, slices.end() - 1);
    }
    std::vector<double> steal;
    for (const Slice& s : slices) steal.push_back(s.steal);
    double cut = std::max(Quantile(steal, 0.25), kQuietSteal);
    Summary out;
    uint64_t statements = 0, rows = 0;
    double secs = 0;
    Histogram kept;
    for (const Slice& s : slices) {
      double rate = Ratio(static_cast<double>(s.w->statements), s.secs);
      bool keep = s.steal <= cut;
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %.0f/%.0f/%.1f%s", rate,
                    s.w->query.QuantileUs(0.99), 100 * s.steal,
                    keep ? "*" : "");
      out.slices += buf;
      if (!keep) continue;
      statements += s.w->statements;
      rows += s.w->rows;
      secs += s.secs;
      kept.Merge(s.w->query);
    }
    out.stmts_per_s = Ratio(static_cast<double>(statements), secs);
    out.rows_per_s = Ratio(static_cast<double>(rows), secs);
    out.query_p50_us = kept.QuantileUs(0.5);
    out.query_p99_us = kept.QuantileUs(0.99);
    out.steal_share = StealShare(cpu_times, start_ns, end_ns);
    return out;
  }
};

Phase RunPhase(const Engine& e, std::vector<std::unique_ptr<Client>>* clients,
               double seconds, bool traced) {
  Phase p;
  Counters before = Counters::Read(e.db, e.mapper);
  std::vector<Samples> per_thread(clients->size());
  SeenTexts seen;
  size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds));
  StealSampler sampler(seconds);
  uint64_t start = NowNs();
  uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients->size(); ++i) {
    threads.emplace_back(ClientLoop, std::cref(e), (*clients)[i].get(),
                         static_cast<int>(i), start, deadline, windows, traced,
                         &seen, &per_thread[i]);
  }
  for (std::thread& t : threads) t.join();
  p.cpu_times = sampler.Finish();
  for (Samples& s : per_thread) p.samples.Merge(std::move(s));
  p.counters = Counters::Read(e.db, e.mapper).Minus(before);
  p.start_ns = start;
  p.end_ns = std::max(p.samples.end_ns, deadline);
  p.slice_ns = (deadline - start) / windows;
  return p;
}

// ------------------------------------------------------------------ host

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string FsType(const std::string& dir) {
  struct statfs st;
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Median AppendCommit (commit record + fsync) on a private log in the data
// directory: one thread, no group commit. Explains update latencies.
sim::Result<double> DeviceSyncUs(const std::string& dir) {
  std::string path = dir + "/device-sync.db";
  fs::remove(path + ".wal");
  std::vector<double> us;
  {
    SIM_ASSIGN_OR_RETURN(std::unique_ptr<sim::WriteAheadLog> wal,
                         sim::WriteAheadLog::Open(path));
    for (int i = 0; i < kDeviceSyncSamples; ++i) {
      uint64_t t0 = NowNs();
      SIM_RETURN_IF_ERROR(wal->AppendCommit());
      us.push_back(static_cast<double>(NowNs() - t0) / 1000);
    }
  }
  fs::remove(path + ".wal");
  return Median(us);
}

// Median time of a fixed single-threaded task that hashes and allocates
// strings, as the engine does. A shared host's speed drifts by tens of
// percent over minutes. This figure drifts with it but runs no engine
// code, so a shift that every timing shares with it is the host's.
double CpuCalibrationMs() {
  std::vector<double> ms;
  uint64_t sink = 0;
  for (int r = 0; r < kCpuCalibrationSamples; ++r) {
    uint64_t t0 = NowNs();
    std::unordered_map<std::string, uint64_t> counts;
    uint64_t x = 1;
    for (uint64_t i = 0; i < 600000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      counts[std::to_string((x >> 33) % 50000)] += i;
    }
    sink += counts.size();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return sink > 0 ? Median(ms) : 0;
}

// Restarts VmHWM, so the peak covers only what follows (Linux 4.0+; the
// peak keeps the earlier set-ups where the kernel refuses).
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "# workload " << workload
      << ": stmt\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.stmt << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

struct Args {
  std::string workload, data_dir, commit = "unknown";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--data-dir") a->data_dir = v;
    else if (k == "--commit") a->commit = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->data_dir.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "simbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  fs::create_directories(args.data_dir);
  sim::Result<double> sync_us = DeviceSyncUs(args.data_dir);
  if (!sync_us.ok()) {
    std::fprintf(stderr, "simbench: device sync probe: %s\n",
                 sync_us.status().ToString().c_str());
    return 2;
  }

  double calibration_before_ms = CpuCalibrationMs();
  Model model = Model::Generate(spec->size, args.seed);
  sim::DatabaseOptions options;
  options.group_commit = spec->group_commit;
  if (spec->file_backed) {
    options.file_path = args.data_dir + "/" + spec->name + ".db";
  }
  std::unique_ptr<sim::Database> db;
  std::vector<double> setup_s;
  // setup_s is the median of the workload's fixed number of set-ups. The
  // one kept for the run is the last; the ones before it only time set-up,
  // so the memory peak starts after them. --trace 1 sets up once.
  int setups = args.trace == 1 ? 1 : spec->setups;
  for (int r = 0; r < setups; ++r) {
    bool last = r + 1 == setups;
    if (spec->file_backed) {
      fs::remove(options.file_path);
      fs::remove(options.file_path + ".wal");
    }
    if (last) ResetPeakRss();
    uint64_t t0 = NowNs();
    sim::Result<std::unique_ptr<sim::Database>> opened =
        OpenAndLoad(model, options);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!opened.ok()) {
      std::fprintf(stderr, "simbench: setup: %s\n",
                   opened.status().ToString().c_str());
      return 2;
    }
    if (last) db = std::move(*opened);
  }
  std::string setup_list;
  for (double t : setup_s) setup_list += " " + std::to_string(t);
  std::fprintf(stderr, "simbench: set-ups (s):%s\n", setup_list.c_str());
  sim::LucMapper* mapper = *db->mapper();
  sim::Optimizer chain_optimizer(mapper);
  // With writers running, the replay may only touch the statement text
  // and the frozen catalog: it holds no locks.
  Engine engine{db.get(), mapper, &chain_optimizer, !spec->writes};
  double pages_per_frame =
      static_cast<double>(db->pager().page_count()) /
      static_cast<double>(options.buffer_pool_frames);

  std::unique_ptr<Workload> workload = MakeWorkload(*spec, model, args.seed);
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < spec->clients; ++c) {
    clients.push_back(workload->NewClient(c, args.seed));
  }
  // --trace 1 splits --seconds between an untraced and a traced phase,
  // plus a quarter for the 1-client traced phase of exec.drain_scaling.
  double phase_s = args.trace == 0 ? args.seconds : args.seconds / 2;
  Phase warmup = RunPhase(engine, &clients, kWarmupSeconds, false);
  Phase untraced = RunPhase(engine, &clients, phase_s, false);
  // The workload's memory peak, before the benchmark's own checks and
  // summaries allocate.
  double peak_rss_mb = PeakRssMiB();
  Phase traced, one_client;
  if (args.trace == 1) {
    traced = RunPhase(engine, &clients, phase_s, true);
    if (spec->clients > 1 && engine.replay_full_pipeline) {
      std::vector<std::unique_ptr<Client>> solo;
      solo.push_back(workload->NewClient(0, args.seed));
      one_client = RunPhase(engine, &solo, args.seconds / 4, true);
    }
  }

  double calibration_after_ms = CpuCalibrationMs();

  // After the timed phases: full retrievals must equal the model.
  Samples final_checks;
  for (const auto& [text, expected] : workload->FinalChecks()) {
    Op op;
    op.text = text;
    ++final_checks.attempted;
    std::vector<sim::Row> rows;
    uint64_t allocs = 0;
    sim::Status st = RunQuery(db.get(), op, &rows, &allocs);
    std::string why = st.ok() ? CheckAnswer(expected, rows) : st.ToString();
    if (!why.empty()) final_checks.Fail(op, why);
  }
  double stored_bytes_per_entity =
      static_cast<double>(db->pager().page_count()) * sim::kPageSize /
      static_cast<double>(model.live_entities());

  const Samples& m = untraced.samples;
  uint64_t attempted = 0, failed = 0;
  for (const Samples* s : {&warmup.samples, &untraced.samples,
                           &traced.samples, &one_client.samples,
                           &final_checks}) {
    attempted += s->attempted;
    failed += s->failed;
    for (const std::string& f : s->failures) {
      std::fprintf(stderr, "simbench: failed: %s\n", f.c_str());
    }
  }

  // Workload properties: what later claims about repeated or
  // larger-than-cache inputs can cite. Every statement but the first of
  // each distinct text is a repeat.
  double repeated_share =
      Ratio(static_cast<double>(m.attempted - m.new_texts),
            static_cast<double>(m.attempted));
  uint64_t statements = m.queries + m.updates;
  Summary e2e = untraced.Summarize();
  std::printf(
      "workload: %s seed=%llu clients=%d seconds=%g data_pages/pool_frames="
      "%.3f repeated_text_share=%.4f write_share=%.4f "
      "rows_per_stmt=%.2f statements=%llu query_samples=%llu "
      "update_samples=%llu fail_ratio=%.6f (%llu/%llu)\n",
      spec->name, static_cast<unsigned long long>(args.seed), spec->clients,
      phase_s, pages_per_frame,
      repeated_share,
      Ratio(static_cast<double>(m.updates), static_cast<double>(statements)),
      Ratio(static_cast<double>(m.rows), static_cast<double>(statements)),
      static_cast<unsigned long long>(statements),
      static_cast<unsigned long long>(m.AllQueries().count()),
      static_cast<unsigned long long>(m.AllUpdates().count()),
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(attempted));
  std::printf(
      "host: nproc=%u build=%s compiler=\"%s\" commit=%s data_fs=%s "
      "device_sync_us=%.1f cpu_calibration_ms=%.2f/%.2f steal_share=%.4f\n",
      std::thread::hardware_concurrency(), SIMBENCH_BUILD_TYPE, kCompiler,
      args.commit.c_str(), FsType(args.data_dir).c_str(), *sync_us,
      calibration_before_ms, calibration_after_ms, e2e.steal_share);
  std::fprintf(stderr, "simbench: slices (stmt/s / p99 us / steal %%, "
               "* counted):%s\n", e2e.slices.c_str());

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"stmts_per_s", e2e.stmts_per_s, "stmt/s"},
        {"rows_per_s", e2e.rows_per_s, "row/s"},
        {"query_p50_us", e2e.query_p50_us, "us"},
        {"query_p99_us", e2e.query_p99_us, "us"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"stored_bytes_per_entity", stored_bytes_per_entity, "B"},
    };
  } else {
    const Samples& t = traced.samples;
    const Counters& c = untraced.counters;
    double stmts = static_cast<double>(statements);
    double rows = static_cast<double>(m.rows);
    double updates = static_cast<double>(m.updates);
    double one_drain = Median(one_client.samples.drain_us);
    // Both timed phases: the replay runs after each update returns, so
    // the traced phase's update latencies are as good, and doubling the
    // samples steadies p99 at mixed's small write share.
    Histogram updates_all = m.AllUpdates();
    updates_all.Merge(t.AllUpdates());
    metrics = {
        {"parser.parse_us", Median(t.parse_us), "us"},
        {"semantics.bind_us", Median(t.bind_us), "us"},
        {"optimizer.optimize_us", Median(t.optimize_us), "us"},
        {"optimizer.strategies_per_plan",
         Ratio(static_cast<double>(t.strategies), static_cast<double>(t.plans)),
         "count"},
        {"exec.plan_build_us", Median(t.build_us), "us"},
        {"exec.drain_us", Median(t.drain_us), "us"},
        {"exec.drain_ns_per_row",
         Ratio(t.drain_ns, static_cast<double>(t.drain_rows)), "ns"},
        {"exec.combinations_per_row",
         Ratio(static_cast<double>(t.combinations),
               static_cast<double>(t.drain_rows)),
         "ratio"},
        {"exec.drain_scaling",
         spec->clients == 1 ? 1.0 : Ratio(Median(t.drain_us), one_drain),
         "ratio"},
        {"api.query_self_us", Median(t.self_us), "us"},
        {"api.front_end_frac", Ratio(t.front_end_ns, t.api_query_ns), "ratio"},
        {"update_p50_us", updates_all.QuantileUs(0.5), "us"},
        {"update_p99_us", updates_all.QuantileUs(0.99), "us"},
        {"luc.mutations_per_update",
         Ratio(static_cast<double>(c.luc_mutations), updates), "ratio"},
        {"storage.buffer_pool.fetches_per_stmt",
         Ratio(static_cast<double>(c.fetches), stmts), "ratio"},
        {"storage.buffer_pool.fetches_per_row",
         Ratio(static_cast<double>(c.fetches), rows), "ratio"},
        {"storage.buffer_pool.miss_ratio",
         Ratio(static_cast<double>(c.misses), static_cast<double>(c.fetches)),
         "ratio"},
        {"storage.buffer_pool.writebacks_per_commit",
         Ratio(static_cast<double>(c.writebacks),
               static_cast<double>(c.wal_commits)),
         "ratio"},
        {"storage.lock_manager.acquisitions_per_stmt",
         Ratio(static_cast<double>(c.lock_acquisitions), stmts), "ratio"},
        {"storage.lock_manager.wait_ratio",
         Ratio(static_cast<double>(c.lock_waits),
               static_cast<double>(c.lock_acquisitions)),
         "ratio"},
        {"storage.lock_manager.aborts", static_cast<double>(c.lock_aborts),
         "count"},
        {"storage.wal.commits_per_fsync",
         Ratio(static_cast<double>(c.wal_commits),
               static_cast<double>(c.wal_batches)),
         "ratio"},
        {"storage.wal.pages_per_commit",
         Ratio(static_cast<double>(c.wal_pages),
               static_cast<double>(c.wal_commits)),
         "ratio"},
        {"storage.wal.checkpoints_per_kcommit",
         Ratio(static_cast<double>(c.wal_checkpoints) * 1000,
               static_cast<double>(c.wal_commits)),
         "ratio"},
        {"storage.wal.device_sync_us", *sync_us, "us"},
        {"common.allocs_per_row",
         Ratio(static_cast<double>(m.engine_allocs), rows), "ratio"},
        {"trace.overhead_frac",
         1 - Ratio(traced.Summarize().stmts_per_s, e2e.stmts_per_s), "ratio"},
    };
    for (int k = 0; k < kUpdateKinds; ++k) {
      metrics.push_back({std::string("api.update_us.") + kUpdateKindName[k],
                         t.update[k].QuantileUs(0.5), "us"});
    }
    WriteSpans(args.data_dir + "/spans-" + spec->name + ".tsv", spec->name,
               traced.samples.spans);
  }
  db.reset();
  if (spec->file_backed) {
    fs::remove(options.file_path);
    fs::remove(options.file_path + ".wal");
  }
  bool correct = failed == 0;
  std::printf("%s\n", Json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  simbench::Args args;
  if (!simbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simbench --workload lookup|scan|mixed --seed N "
                 "--seconds S --trace 0|1 --data-dir DIR [--commit SHA]\n");
    return 2;
  }
  return simbench::Run(args);
}
