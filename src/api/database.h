#ifndef SIMDB_API_DATABASE_H_
#define SIMDB_API_DATABASE_H_

// Public entry point of simdb — a reproduction of SIM, the Semantic
// Information Manager (SIGMOD 1988). A Database owns the whole Figure-1
// stack: Directory Manager (catalog), Parser, Binder, Optimizer, Query
// Driver (executor) and the LUC Mapper over the storage engine.
//
// Typical use:
//
//   sim::DatabaseOptions options;
//   SIM_ASSIGN_OR_RETURN(auto db, sim::Database::Open(options));
//   SIM_RETURN_IF_ERROR(db->ExecuteDdl("Class Person (name: string[30]);"));
//   SIM_RETURN_IF_ERROR(db->ExecuteUpdate(
//       "Insert Person (name := \"Ada\")").status());
//   SIM_ASSIGN_OR_RETURN(auto rs,
//       db->ExecuteQuery("From Person Retrieve name"));
//
// DDL must be complete before the first data operation (the physical
// mapping is frozen when the mapper is built); schema evolution requires a
// new database.
//
// Concurrency (DESIGN.md §14): a Database is safe for concurrent
// statements from multiple threads. Readers run in parallel under shared
// class-extent locks; writers take exclusive locks widened to the EVA
// closure of the target family and serialize their apply phase through a
// commit latch, releasing it before the durability wait so group commit
// can coalesce fsyncs across writer threads. Explicit transactions
// (Begin/Commit/Rollback) are session state pinned to the thread that
// called Begin(): that thread's statements join the transaction; other
// threads' statements run autocommit and wait on its locks like any
// foreign session.

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "catalog/directory.h"
#include "catalog/luc_translation.h"
#include "check/check.h"
#include "check/repair.h"
#include "common/query_context.h"
#include "common/status.h"
#include "exec/integrity.h"
#include "exec/operators.h"
#include "exec/output.h"
#include "exec/update_exec.h"
#include "luc/mapper.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "semantics/binder.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"
#include "storage/fault_pager.h"
#include "storage/lock_manager.h"
#include "storage/pager.h"
#include "storage/quarantine.h"
#include "storage/scrub.h"
#include "storage/txn.h"
#include "storage/wal.h"

namespace sim {

struct Stmt;  // parser/ast.h

struct DatabaseOptions {
  // Physical mapping rules (§5.2); defaults follow the paper.
  MappingPolicy mapping;
  // Buffer pool size in 4 KiB frames.
  size_t buffer_pool_frames = 512;
  // Cost-based optimization of Retrieve queries; when false, queries run
  // with extent scans in perspective order.
  bool use_optimizer = true;
  // Path of a backing database file; empty runs fully in memory.
  std::string file_path;
  // File-backed databases run in WAL mode: committed page images are
  // copied from the log into the database file once the log exceeds this
  // size (and at clean close). 0 checkpoints after every commit.
  uint64_t wal_checkpoint_bytes = 1u << 20;
  // When set, every database-file and WAL operation consults this
  // injector, so crash-safety tests can script deterministic fault
  // schedules. Not owned; must outlive the Database.
  FaultInjector* fault_injector = nullptr;
  // Group commit: a background durability thread coalesces concurrent
  // commit records into one fsync (N committers, one disk flush). Off by
  // default — the single fsync-per-commit path keeps the I/O schedule
  // deterministic for single-threaded workloads and crash sweeps.
  bool group_commit = false;
  // Run a full simcheck audit at the end of metadata recovery and fail
  // Open on any finding, so a corrupt rehydration can never masquerade as
  // a healthy database. Costs one pass over the recovered data.
  bool recovery_audit = true;
  // Debug mode for tests: run the full invariant audit after every update
  // statement (failing the statement's result on any finding) and wrap
  // every Retrieve plan in the iterator-protocol checker.
  bool paranoid_checks = false;
  // Resource governor applied to every statement: deadline_ms (-1 =
  // unlimited, 0 = cancel at the first check), max_combinations, max_rows,
  // max_bytes and an optional shared cancel flag. A fresh QueryContext is
  // built from these limits per statement.
  QueryContext::Limits governor;
  // Retry policy for transient (kUnavailable) I/O failures on the
  // database file and the WAL: bounded exponential backoff with
  // deterministic jitter. Permanent failures (kIoError) and disk-full
  // (kDiskFull) are never retried.
  RetryPolicy io_retry;
  // Observability: per-statement trace spans (parse → bind → optimize →
  // map → execute), statement counters and latency histograms, and an
  // optional NDJSON event-log sink. Component counters (buffer pool, WAL,
  // I/O retry) are maintained and scrapeable regardless of `obs.enabled`.
  obs::ObsOptions obs;
  // Online scrubber (DESIGN.md §13): when enabled on a file-backed
  // database a paced background thread walks the durable pages verifying
  // checksums and quarantining rot before a query ever touches it. SCRUB
  // DATABASE / simdb_check --scrub run a full synchronous pass regardless
  // of this flag.
  bool background_scrub = false;
  uint64_t scrub_interval_ms = 50;
  uint64_t scrub_pages_per_tick = 64;
};

class Database {
 public:
  // Opens a database. For a file-backed database this also opens the
  // write-ahead log and runs full crash recovery: committed page images
  // left by a previous crash are replayed into the file, then the catalog
  // is reinstalled from the logged DDL and the LUC mapper rehydrated from
  // the logged bootstrap snapshot — the reopened database answers queries
  // with zero external input. When `recovery_audit` is set (default) a
  // full simcheck audit gates the recovered state.
  static Result<std::unique_ptr<Database>> Open(
      const DatabaseOptions& options = DatabaseOptions());

  // Clean close: flushes the pool, logs a final mapper snapshot and
  // checkpoints the WAL down to its metadata baseline (file-backed, no
  // open transaction). Best-effort — failures leave replay work for the
  // next Open, never an inconsistent file.
  ~Database();

  // --- schema definition ---

  // Parses and installs a batch of DDL (types, classes, verifies), then
  // finalizes the catalog. Must precede the first data operation: once the
  // physical mapping exists the schema is frozen and further DDL fails
  // with kFailedPrecondition.
  Status ExecuteDdl(std::string_view ddl_text) SIM_EXCLUDES(init_mu_);

  // --- data manipulation ---

  // Runs one Retrieve statement (or CHECK / SCRUB / REPAIR DATABASE, SHOW
  // METRICS). A Retrieve is planned, opened as a cursor and drained.
  Result<ResultSet> ExecuteQuery(std::string_view dml);

  // Streaming query handle: rows are produced on demand by the Volcano
  // operator pipeline, so consuming a prefix (or closing early) does only
  // the work needed for the rows actually pulled. Must not outlive the
  // Database. Closed automatically on destruction.
  class Cursor {
   public:
    Cursor(Cursor&&) noexcept;
    Cursor& operator=(Cursor&&) noexcept;
    ~Cursor();

    // Display headers / output shape of the underlying Retrieve.
    const std::vector<std::string>& columns() const;
    bool structured() const;

    // Pulls the next row; false when the stream is exhausted. After a
    // non-OK return the cursor is terminally failed: every further Next
    // returns the same status without re-entering the operator tree.
    Result<bool> Next(Row* row);

    // Requests cooperative cancellation: the next governor check inside
    // the pipeline fails with kCancelled. Safe to call at any time,
    // including from another thread.
    void Cancel();

    // Releases operator state. Safe to call mid-stream or repeatedly.
    Status Close();

    // Pipeline counters so far (combinations examined, rows emitted).
    ExecStats stats() const;

    // Governor counters (checks, combinations, rows, bytes charged).
    QueryContext::Stats governor_stats() const;

   private:
    friend class Database;
    struct Impl;
    explicit Cursor(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
  };

  // Plans one Retrieve statement and returns an open streaming cursor.
  Result<Cursor> OpenCursor(std::string_view dml);

  // Runs one Insert / Modify / Delete; returns the number of entities
  // affected. Statement-atomic: any constraint or VERIFY violation rolls
  // the statement back.
  Result<int> ExecuteUpdate(std::string_view dml);

  // Runs a sequence of update statements, each statement-atomic.
  Status ExecuteScript(std::string_view dml_script);

  // --- corruption containment & repair (DESIGN.md §13) ---

  // SCRUB DATABASE: a full synchronous detection pass over the durable
  // pages — every CRC verified, every heap record decoded through
  // RecordView. Rotted pages are quarantined (and the registry logged);
  // the report carries what was found. Works while degraded or read-only.
  Result<Scrubber::Report> Scrub();

  // REPAIR DATABASE: detection sweep, then salvage (check/repair.h), then
  // the durability epilogue — flush, persist the now-empty quarantine,
  // snapshot, commit, checkpoint — then a full re-audit. Rejected inside
  // an explicit transaction and in read-only (disk-full) mode.
  struct RepairResult {
    Repairer::Report report;
    Scrubber::Report scrub;       // the pre-repair detection sweep
    uint64_t audit_findings = 0;  // findings in the post-repair audit
  };
  Result<RepairResult> Repair();

  // Bad-page registry: reads touching these pages fail with kDataLoss
  // while everything else keeps serving (degraded service).
  const QuarantineRegistry& quarantine() const { return quarantine_; }
  // True while service is degraded: read-only after disk-full, or at
  // least one page quarantined. Mirrors the simdb_degraded gauge.
  bool degraded() const { return read_only_ || !quarantine_.empty(); }

  // Runs the simcheck invariant audit over whatever is available: the
  // catalog always, storage + pages when the physical layer exists. Never
  // builds the mapper itself — but since recovery rehydrates the mapper,
  // a reopened crashed database gets the FULL audit, not a degraded one.
  // Violations are findings in the report, not a non-OK status.
  Result<CheckReport> Audit();

  // The plan a Retrieve would run with, as text: query tree, root
  // strategy and the validated operator tree with estimated rows. Plans
  // exactly as the entry points that run a query do, and takes no locks.
  Result<std::string> Explain(std::string_view dml);

  // Explain, then run the query through a cursor with per-operator timing
  // on: the operator tree is printed with estimated AND actual row counts,
  // wall time and buffer-pool hits/misses per operator.
  Result<std::string> ExplainAnalyze(std::string_view dml);

  // --- explicit transactions ---

  // Groups several statements into one atomic unit. Without an explicit
  // transaction each update statement is its own transaction.
  Status Begin() SIM_EXCLUDES(session_mu_);
  Status Commit() SIM_EXCLUDES(session_mu_, commit_mu_);
  Status Rollback() SIM_EXCLUDES(session_mu_, commit_mu_);
  // Unlatched: meaningful only on the thread driving the transaction.
  bool in_transaction() const { return current_txn_ != nullptr; }

  // --- component access (examples, tests, benches) ---

  DirectoryManager& catalog() { return dir_; }
  const DirectoryManager& catalog() const { return dir_; }
  Result<LucMapper*> mapper();  // builds the physical layer on first use
  BufferPool& buffer_pool() { return *pool_; }
  Pager& pager() { return *pager_; }
  // Null for in-memory databases.
  WriteAheadLog* wal() { return wal_.get(); }
  // True once a disk-full error degraded the database to read-only mode:
  // updates and Begin() fail with kReadOnly, retrieval and Audit() still
  // work. Reopening the database (after freeing space) clears the mode.
  bool read_only() const { return read_only_; }
  // Transient-I/O retry counters for the database-file pager.
  const RetryStats& io_retry_stats() const {
    return resilient_pager_->retry_stats();
  }
  // Pages replayed from the WAL by recovery during Open.
  uint64_t recovered_pages() const { return recovered_pages_; }
  // Committed metadata records (DDL + snapshot frames) recovery replayed.
  uint64_t recovered_meta_records() const { return recovered_meta_records_; }
  // Wall time Open spent in recovery (page replay + metadata rehydration).
  uint64_t recovery_us() const { return recovery_us_; }
  const DatabaseOptions& options() const { return options_; }
  // Lock-manager counters (simdb_lock_*): grants, waits, deadlock kills,
  // deadline/cancel aborts.
  const LockManager::Stats& lock_stats() const { return lock_manager_.stats(); }
  // Cursors destroyed while terminally failed without an explicit Close()
  // — the dropped-Status signal (simdb_dropped_status_total).
  uint64_t dropped_statuses() const {
    return dropped_statuses_.load(std::memory_order_relaxed);
  }
  // Statement execution artifacts of the most recent statement, returned
  // by value: concurrent statements each publish their own copy under
  // stmt_mu_, so observers see one coherent plan, never a torn mix.
  ExecStats last_exec_stats() const SIM_EXCLUDES(stmt_mu_) {
    MutexLock l(stmt_mu_);
    return last_exec_stats_;
  }
  AccessPlan last_plan() const SIM_EXCLUDES(stmt_mu_) {
    MutexLock l(stmt_mu_);
    return last_plan_;
  }

  // --- observability ---

  // The metrics registry (buffer pool, WAL, I/O retry, statement and
  // executor counters). Components update their cells lock-free; the
  // registry reads them at scrape time.
  obs::MetricsRegistry& metrics() { return metrics_; }
  // Prometheus-style text exposition of every registered metric — the
  // same data `SHOW METRICS` delivers as a result set.
  std::string MetricsText() const { return metrics_.TextExposition(); }
  // The in-memory trace ring as NDJSON (one finished span per line).
  // Empty when `options.obs.enabled` is false.
  std::string TraceNdjson() const {
    return trace_ != nullptr ? trace_->Ndjson() : std::string();
  }
  // Null when tracing is disabled.
  obs::TraceLog* trace_log() { return trace_.get(); }

 private:
  explicit Database(DatabaseOptions options);

  // RAII per-statement instrumentation (statement span + counters +
  // latency histogram); defined in database.cc.
  class StmtObs;

  // Registers the component views/callbacks and creates the statement
  // counters. Called once by Open after the storage stack exists.
  void RegisterMetrics();

  // Plan step of every Retrieve entry point: binds `stmt` (which must be a
  // Retrieve; `entry` names the caller in the error), optimizes it when
  // use_optimizer is set, builds and validates the operator tree, and
  // wraps its root in ProtocolCheck when paranoid_checks is set. Emits the
  // bind, optimize and map spans. Takes no locks: planning reads only the
  // frozen physical schema and counters the mapper latches.
  Result<std::unique_ptr<Cursor::Impl>> PlanRetrieve(const Stmt& stmt,
                                                     std::string_view entry,
                                                     const StmtObs& sobs);

  // Open step of every entry point that runs a query: S-locks the read set
  // into the statement's QueryContext (or the calling thread's explicit
  // transaction scope), builds the ExecContext and opens the plan.
  Result<Cursor> OpenPlanned(std::unique_ptr<Cursor::Impl> q,
                             const StmtObs& sobs);

  // Close-time accounting of a query run: publishes last_plan() and
  // last_exec_stats(), folds executor + governor stats into the registry
  // and records the "execute" span (registry and span only with obs on).
  void ObserveExec(const Cursor::Impl& q, bool ok) SIM_EXCLUDES(stmt_mu_);

  // Builds physical schema + mapper + integrity checker if not yet built.
  // Thread-safe: double-checked through scrape_mapper_ with init_mu_
  // serializing the build; the first data statement wins the race.
  Status EnsureMapper() SIM_EXCLUDES(init_mu_);

  // Shared body of ExecuteUpdate and ExecuteScript: locks, applies,
  // commits (implicit transactions) one already-parsed update statement.
  Result<int> ApplyUpdate(const Stmt& stmt, StmtObs* sobs)
      SIM_EXCLUDES(session_mu_, commit_mu_);

  // The exclusive lock set for a write to `class_name`: the target class
  // plus the range class of every EVA declared anywhere in its family —
  // maintained inverses, FK-EVA rewrites and clustered inserts touch
  // units (and shared heap pages) of those families. The lock manager
  // widens each name to its whole family.
  std::vector<std::string> WriteLockSet(const std::string& class_name) const;

  // The lock scope a statement acquires into: the explicit transaction's
  // when the calling thread owns it (that transaction is stored in *txn
  // when `txn` is given), else a fresh statement scope stored in *own,
  // which the caller keeps alive for as long as the locks must hold.
  LockManager::Scope* StatementScope(std::unique_ptr<LockManager::Scope>* own,
                                     Transaction** txn = nullptr)
      SIM_EXCLUDES(session_mu_);

  // Audit body without lock acquisition — for callers already holding a
  // covering lock set (paranoid post-update audit, Repair's exclusive
  // scope, recovery before concurrency exists).
  Result<CheckReport> AuditLocked();
  // Scrub body without lock acquisition (see AuditLocked).
  Result<Scrubber::Report> ScrubLocked();

  // Threshold checkpoint after a durable commit: drains pending commit
  // tickets, then folds the log into the database file under commit_mu_.
  // Best-effort — failure leaves replay work in the WAL.
  void MaybeCheckpoint() SIM_EXCLUDES(commit_mu_);

  // Parses and installs one DDL batch into the catalog (no WAL logging,
  // no statement observability) — the shared core of ExecuteDdl and
  // recovery's DDL replay.
  Status InstallDdl(std::string_view ddl_text);

  // Reinstalls catalog + mapper from the metadata the WAL scan recovered,
  // seals the log with a fresh baseline, and (by default) audits the
  // result. No-op when the log carried no metadata.
  Status RecoverMetadata();

  // The pager all I/O goes through. Decorator chain, bottom up: raw
  // Mem/FilePager -> FaultInjectingPager (when an injector is installed)
  // -> ResilientPager (transient-failure retry). The retry layer sits
  // ABOVE the injector so injected transient faults exercise it.
  Pager* io_pager() {
    if (resilient_pager_ != nullptr) return resilient_pager_.get();
    return fault_pager_ != nullptr ? fault_pager_.get() : pager_.get();
  }

  // Flips to read-only mode when an update/commit path surfaced ENOSPC.
  void NoteIoStatus(const Status& s) {
    if (s.code() == StatusCode::kDiskFull) read_only_ = true;
  }
  Status ReadOnlyError() const {
    return Status::ReadOnly(
        "database is read-only after a disk-full error; retrieval and CHECK "
        "DATABASE remain available (reopen after freeing space to resume "
        "updates)");
  }

  DatabaseOptions options_;
  // Declared before the storage stack: registered views point into
  // component-owned counter cells, so the registry must outlive nothing —
  // but the statement counters live here and the members below may be
  // registered, so keep the registry first (destroyed last).
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceLog> trace_;  // non-null iff options_.obs.enabled
  // Registry-owned statement/executor counters, cached at registration.
  obs::Counter* m_stmt_total_ = nullptr;
  obs::Counter* m_stmt_errors_ = nullptr;
  obs::Counter* m_stmt_queries_ = nullptr;
  obs::Counter* m_stmt_updates_ = nullptr;
  obs::Counter* m_stmt_ddl_ = nullptr;
  obs::Histogram* m_stmt_latency_us_ = nullptr;
  obs::Counter* m_exec_combinations_ = nullptr;
  obs::Counter* m_exec_rows_ = nullptr;
  obs::Counter* m_gov_checks_ = nullptr;
  obs::Counter* m_gov_trips_ = nullptr;
  obs::Histogram* m_group_batch_ = nullptr;
  DirectoryManager dir_;
  // Declared before the storage stack: the buffer pool and the scrubber
  // hold pointers into the registry, so it must be destroyed after them.
  QuarantineRegistry quarantine_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<FaultInjectingPager> fault_pager_;
  std::unique_ptr<ResilientPager> resilient_pager_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<BufferPool> pool_;
  // Declared after wal_/pool_ so it is destroyed (joined) first; the
  // destructor also stops it explicitly before the clean-close sequence.
  std::unique_ptr<Scrubber> scrubber_;
  uint64_t recovered_pages_ = 0;
  uint64_t recovered_meta_records_ = 0;
  uint64_t recovery_us_ = 0;
  // Every DDL batch executed (or replayed), verbatim, in order — the
  // durable definition of the catalog. Re-logged as the WAL baseline at
  // every checkpoint; replaying the same text reproduces the same class
  // codes the record bytes on disk are tagged with.
  std::vector<std::string> ddl_history_;
  std::unique_ptr<PhysicalSchema> phys_;
  std::unique_ptr<LucMapper> mapper_;
  std::unique_ptr<IntegrityChecker> integrity_;
  // Long-lived: statistics auto-refresh via the mapper mutation counter.
  std::unique_ptr<Optimizer> optimizer_;
  // Mapper/optimizer pointers as seen by concurrent metrics scrapes. The
  // engines are built lazily on the execution thread (EnsureMapper), so a
  // scrape callback reading mapper_/optimizer_ directly would race the
  // unique_ptr assignment. These are published with a release store only
  // after the object is fully constructed; scrape callbacks acquire-load
  // them (the stats they then read are RelaxedCounter cells).
  std::atomic<LucMapper*> scrape_mapper_{nullptr};
  std::atomic<Optimizer*> scrape_optimizer_{nullptr};
  TransactionManager txn_manager_;
  // Semantic lock manager (DESIGN.md §14). Declared before the latches so
  // scopes never outlive it.
  LockManager lock_manager_;
  // init_mu_ serializes lazy construction of the physical layer
  // (EnsureMapper) against DDL: the schema freezes the instant the first
  // data statement builds the mapper. mapper_/phys_/integrity_/optimizer_
  // stay unannotated — they are written once under init_mu_, published via
  // scrape_mapper_ (release), and read raw on every execution path after
  // EnsureMapper's acquire load.
  mutable Mutex init_mu_;
  // commit_mu_ serializes every mapper mutation and the commit sequence
  // (apply → flush → snapshot → commit ticket): the WAL's per-commit
  // mapper snapshot must capture statement boundaries, never a concurrent
  // writer mid-apply. Released before the durability wait so group commit
  // batches fsyncs across writer threads. Lock order: session_mu_ → lock
  // manager waits → commit_mu_ → WAL seq_mu_.
  mutable Mutex commit_mu_;
  // Session transaction state. current_txn_/txn_scope_ are read under
  // session_mu_ at statement entry; the thread that called Begin() owns
  // them until its Commit/Rollback. The transaction is pinned to that
  // thread (txn_thread_): statements from other threads run autocommit
  // and contend through the lock manager like any foreign session —
  // without the pin, a concurrent reader would silently join the open
  // transaction's scope and see its uncommitted writes.
  mutable Mutex session_mu_;
  Transaction* current_txn_ = nullptr;
  std::thread::id txn_thread_;
  // Lock scope of the explicit transaction: grows with each statement,
  // released at Commit/Rollback (strict two-phase locking).
  std::unique_ptr<LockManager::Scope> txn_scope_;
  // Stashed by the commit hook (runs under commit_mu_), consumed by the
  // committer before releasing commit_mu_: the WAL ticket to await and the
  // mapper snapshot matching the last commit (checkpoint baseline).
  // Unannotated for the same reason as the hook itself — the analysis
  // cannot see commit_mu_ across the TransactionManager callback.
  uint64_t pending_ticket_ = 0;
  std::string pending_snapshot_;
  // Cursors that died holding a non-OK terminal status nobody read.
  std::atomic<uint64_t> dropped_statuses_{0};
  obs::Counter* m_dropped_status_ = nullptr;
  // Atomic: flipped on the execution thread, read by metrics scrape
  // threads (the simdb_degraded gauge).
  std::atomic<bool> read_only_{false};
  // stmt_mu_ guards the most-recent-statement artifacts below; concurrent
  // statements publish their statement-local copies here at completion.
  mutable Mutex stmt_mu_;
  ExecStats last_exec_stats_ SIM_GUARDED_BY(stmt_mu_);
  AccessPlan last_plan_ SIM_GUARDED_BY(stmt_mu_);
};

}  // namespace sim

#endif  // SIMDB_API_DATABASE_H_
