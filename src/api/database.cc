#include "api/database.h"

#include <chrono>
#include <cstdio>
#include <functional>

#include "check/plan_check.h"
#include "exec/physical_plan.h"
#include "luc/rehydrate.h"
#include "parser/ddl_parser.h"
#include "parser/dml_parser.h"

namespace sim {

Database::Database(DatabaseOptions options) : options_(std::move(options)) {}

// RAII per-statement instrumentation. Constructed at the top of each
// Execute* entry point: allocates the statement id, opens the top-level
// "statement" span (recorded on destruction), and on destruction bumps
// the statement counters and latency histogram. Failure is the default —
// call MarkOk() on the success path.
class Database::StmtObs {
 public:
  StmtObs(Database* db, obs::Counter* kind_counter, std::string_view text)
      : db_(db),
        kind_counter_(kind_counter),
        stmt_(db->trace_ != nullptr ? db->trace_->BeginStatement() : 0),
        span_(db->trace_.get(), stmt_, "statement") {
    span_.SetDetail(std::string(text));
  }
  StmtObs(const StmtObs&) = delete;
  StmtObs& operator=(const StmtObs&) = delete;
  ~StmtObs() {
    if (!db_->options_.obs.enabled) return;
    db_->m_stmt_total_->Increment();
    kind_counter_->Increment();
    if (!ok_) db_->m_stmt_errors_->Increment();
    db_->m_stmt_latency_us_->Observe(span_.ElapsedUs());
  }

  uint64_t stmt() const { return stmt_; }
  obs::TraceLog* log() const { return db_->trace_.get(); }
  // Parses one DML statement under this statement's "parse" span.
  Result<StmtPtr> Parse(std::string_view text) const {
    obs::Span span(log(), stmt_, "parse");
    SIM_ASSIGN_OR_RETURN(StmtPtr stmt, DmlParser::ParseStatement(text));
    span.MarkOk();
    return stmt;
  }
  void MarkOk() {
    ok_ = true;
    span_.MarkOk();
  }

 private:
  Database* db_;
  obs::Counter* kind_counter_;
  uint64_t stmt_;
  obs::Span span_;
  bool ok_ = false;
};

void Database::RegisterMetrics() {
  const BufferPool::Counters& pc = pool_->counters();
  metrics_.RegisterCounterView("simdb_pool_logical_fetches",
                               "Buffer pool fetches of existing pages "
                               "(hits + misses).",
                               &pc.logical_fetches);
  metrics_.RegisterCounterView("simdb_pool_misses",
                               "Buffer pool fetches served by the pager.",
                               &pc.misses);
  metrics_.RegisterCounterView("simdb_pool_evictions",
                               "Frames reclaimed from resident pages.",
                               &pc.evictions);
  metrics_.RegisterCounterView("simdb_pool_dirty_writebacks",
                               "Dirty frames written back (eviction, "
                               "FlushAll and InvalidateAll).",
                               &pc.dirty_writebacks);
  metrics_.RegisterCounterView("simdb_pool_allocations",
                               "Pages born in the pool via New.",
                               &pc.allocations);
  m_stmt_total_ =
      metrics_.GetCounter("simdb_stmt_total", "Statements executed.");
  m_stmt_errors_ = metrics_.GetCounter("simdb_stmt_errors_total",
                                       "Statements that returned an error.");
  m_stmt_queries_ = metrics_.GetCounter("simdb_stmt_queries_total",
                                        "Retrieve / CHECK / SHOW statements.");
  m_stmt_updates_ = metrics_.GetCounter(
      "simdb_stmt_updates_total", "Insert / Modify / Delete statements.");
  m_stmt_ddl_ =
      metrics_.GetCounter("simdb_stmt_ddl_total", "DDL batches installed.");
  m_stmt_latency_us_ = metrics_.GetHistogram(
      "simdb_stmt_latency_us", "Statement wall time in microseconds.",
      obs::Histogram::DefaultLatencyBoundsUs());
  m_exec_combinations_ =
      metrics_.GetCounter("simdb_exec_combinations_total",
                          "Combinations examined by the query driver.");
  m_exec_rows_ = metrics_.GetCounter("simdb_exec_rows_total",
                                     "Rows delivered by the query driver.");
  m_gov_checks_ = metrics_.GetCounter(
      "simdb_governor_checks_total", "Cooperative governor checkpoints.");
  m_gov_trips_ = metrics_.GetCounter(
      "simdb_governor_trips_total",
      "Statements stopped by a governor limit or cancellation.");
  // Plain-struct component stats (RetryStats, WAL Stats) are sampled
  // through callbacks at scrape time; the structs stay the source of
  // truth for their historical accessors.
  auto retry_field = [this](RelaxedCounter RetryStats::*field) {
    return [this, field]() {
      uint64_t n = (resilient_pager_->retry_stats().*field).value();
      if (wal_ != nullptr) n += (wal_->retry_stats().*field).value();
      return n;
    };
  };
  metrics_.RegisterCallback("simdb_io_retry_attempts_total",
                            "I/O operations attempted (pager + WAL).",
                            retry_field(&RetryStats::attempts));
  metrics_.RegisterCallback("simdb_io_retry_retries_total",
                            "Re-attempts after transient I/O failures.",
                            retry_field(&RetryStats::retries));
  metrics_.RegisterCallback("simdb_io_retry_giveups_total",
                            "Transient failures that outlasted the budget.",
                            retry_field(&RetryStats::giveups));
  metrics_.RegisterCallback("simdb_io_retry_backoff_us_total",
                            "Total backoff slept before retries, in "
                            "microseconds.",
                            retry_field(&RetryStats::backoff_us_total));
  auto wal_field = [this](uint64_t WriteAheadLog::Stats::*field) {
    return [this, field]() {
      return wal_ != nullptr ? wal_->stats().*field : 0;
    };
  };
  metrics_.RegisterCallback("simdb_wal_pages_appended_total",
                            "Page images appended to the WAL.",
                            wal_field(&WriteAheadLog::Stats::pages_appended));
  metrics_.RegisterCallback("simdb_wal_commits_total",
                            "Commit records appended to the WAL.",
                            wal_field(&WriteAheadLog::Stats::commits));
  metrics_.RegisterCallback("simdb_wal_checkpoints_total",
                            "WAL checkpoints into the database file.",
                            wal_field(&WriteAheadLog::Stats::checkpoints));
  metrics_.RegisterCallback("simdb_wal_recovered_pages_total",
                            "Pages replayed from the WAL by recovery.",
                            wal_field(&WriteAheadLog::Stats::recovered_pages));
  metrics_.RegisterCallback("simdb_wal_size_bytes",
                            "Current WAL length in bytes.", [this]() {
                              return wal_ != nullptr ? wal_->size_bytes() : 0;
                            });
  // Crash-recovery outcome of this Open, sampled from plain members at
  // scrape time (recovery itself runs after metric registration).
  metrics_.RegisterCallback("simdb_recovery_pages_replayed",
                            "Pages replayed from the WAL by this Open's "
                            "recovery.",
                            [this]() { return recovered_pages_; });
  metrics_.RegisterCallback("simdb_recovery_meta_records",
                            "Committed metadata records (DDL + snapshot) "
                            "replayed by this Open's recovery.",
                            [this]() { return recovered_meta_records_; });
  metrics_.RegisterCallback("simdb_recovery_us",
                            "Wall time this Open spent in crash recovery, "
                            "in microseconds.",
                            [this]() { return recovery_us_; });
  m_group_batch_ = metrics_.GetHistogram(
      "simdb_group_commit_batch_size",
      "Commit tickets coalesced into one WAL fsync by the group-commit "
      "durability thread.",
      {1, 2, 4, 8, 16, 32, 64});
  // LUC mapper update-path work and optimizer planning activity. Both
  // components are built lazily (EnsureMapper), so the callbacks must
  // tolerate sampling a database that has run no data statement yet.
  // Scrape callbacks must not read mapper_/optimizer_ (unique_ptrs the
  // execution thread assigns lazily); they read the scrape_* pointers,
  // which are release-published only once the engine is constructed.
  auto luc_field = [this](RelaxedCounter LucMapper::Stats::*field) {
    return [this, field]() -> uint64_t {
      const LucMapper* m = scrape_mapper_.load(std::memory_order_acquire);
      return m != nullptr ? (m->stats().*field).value() : 0;
    };
  };
  metrics_.RegisterCallback("simdb_luc_entities_created_total",
                            "Entities created through the LUC mapper.",
                            luc_field(&LucMapper::Stats::entities_created));
  metrics_.RegisterCallback("simdb_luc_fields_set_total",
                            "Single-valued DVA writes.",
                            luc_field(&LucMapper::Stats::fields_set));
  metrics_.RegisterCallback("simdb_luc_mv_changes_total",
                            "Multi-valued DVA adds and removes.",
                            luc_field(&LucMapper::Stats::mv_changes));
  metrics_.RegisterCallback("simdb_luc_eva_changes_total",
                            "EVA relationship instance adds and removes.",
                            luc_field(&LucMapper::Stats::eva_changes));
  metrics_.RegisterCallback("simdb_luc_mutations_total",
                            "All data mutations (the optimizer's "
                            "staleness signal).",
                            [this]() -> uint64_t {
                              const LucMapper* m = scrape_mapper_.load(
                                  std::memory_order_acquire);
                              return m != nullptr ? m->mutation_count() : 0;
                            });
  metrics_.RegisterCallback("simdb_opt_plans_total",
                            "Access plans produced by the optimizer.",
                            [this]() -> uint64_t {
                              const Optimizer* o = scrape_optimizer_.load(
                                  std::memory_order_acquire);
                              return o != nullptr ? o->plans_made() : 0;
                            });
  metrics_.RegisterCallback("simdb_opt_stats_refreshes_total",
                            "Statistics snapshots re-collected for "
                            "planning.",
                            [this]() -> uint64_t {
                              const Optimizer* o = scrape_optimizer_.load(
                                  std::memory_order_acquire);
                              return o != nullptr ? o->stats_refreshes() : 0;
                            });
  // Corruption containment & repair (DESIGN.md §13). The degraded gauge is
  // the single "is service reduced" signal: disk-full read-only mode from
  // the I/O latch, or at least one quarantined page whose records answer
  // with DataLoss.
  metrics_.RegisterGaugeCallback(
      "simdb_degraded",
      "1 while service is degraded: read-only after disk-full, or at least "
      "one page quarantined.",
      [this]() -> uint64_t {
        return read_only_.load() || !quarantine_.empty() ? 1 : 0;
      });
  metrics_.RegisterGaugeCallback(
      "simdb_quarantined_pages",
      "Pages currently quarantined for checksum failure; their records read "
      "as DataLoss until REPAIR DATABASE.",
      [this]() -> uint64_t { return quarantine_.size(); });
  const Scrubber::Counters& sc = scrubber_->counters();
  metrics_.RegisterCounterView("simdb_scrub_passes_total",
                               "Scrub passes completed (background ticks "
                               "and on-demand sweeps).",
                               &sc.passes);
  metrics_.RegisterCounterView("simdb_scrub_pages_scanned_total",
                               "Pages whose checksum the scrubber verified.",
                               &sc.pages_scanned);
  metrics_.RegisterCounterView("simdb_scrub_errors_found_total",
                               "Checksum or record-codec failures the "
                               "scrubber detected.",
                               &sc.errors_found);
  metrics_.RegisterCounterView("simdb_scrub_pages_quarantined_total",
                               "Pages the scrubber placed in quarantine.",
                               &sc.pages_quarantined);
  // Semantic lock manager (DESIGN.md §14). Waits and deadlocks are the
  // contention signals; acquisitions put them in proportion.
  const LockManager::Stats& ls = lock_manager_.stats();
  metrics_.RegisterCounterView("simdb_lock_acquisitions_total",
                               "Class/record locks granted.",
                               &ls.acquisitions);
  metrics_.RegisterCounterView("simdb_lock_waits_total",
                               "Acquisitions that blocked on a conflicting "
                               "holder.",
                               &ls.waits);
  metrics_.RegisterCounterView("simdb_lock_deadlocks_total",
                               "Acquisitions aborted to break a wait cycle.",
                               &ls.deadlocks);
  metrics_.RegisterCounterView("simdb_lock_timeouts_total",
                               "Acquisitions that exhausted the statement "
                               "deadline while waiting.",
                               &ls.timeouts);
  m_dropped_status_ = metrics_.GetCounter(
      "simdb_dropped_status_total",
      "Statuses discarded unobserved (cursor destroyed with a failing "
      "close).");
}

Database::~Database() {
  // The background scrubber reads the database file and the WAL; join it
  // before any teardown (also covers the early returns below).
  if (scrubber_ != nullptr) scrubber_->Stop();
  // Clean close. Skipped when a transaction is still open: its uncommitted
  // work must not become durable. Every step is best-effort — on failure
  // the WAL simply keeps its replay work for the next Open's recovery.
  if (wal_ == nullptr || current_txn_ != nullptr || pool_ == nullptr) return;
  if (!pool_->FlushAll().ok()) return;
  std::string snapshot;
  if (mapper_ != nullptr) {
    Result<std::string> snap = MapperRehydrator::Snapshot(*mapper_);
    if (!snap.ok()) return;
    snapshot = std::move(*snap);
    if (!wal_->AppendMetaSnapshot(snapshot).ok()) return;
  }
  if (wal_->empty()) return;
  if (!wal_->AppendCommit().ok()) return;
  // Checkpoint down to the metadata baseline: the database file absorbs
  // the committed pages and the log keeps only what the next Open needs
  // to rebuild catalog + mapper.
  // Close is best-effort, but a disk-full checkpoint failure must still
  // flip the read-only latch so a racing reader of read_only() agrees
  // with what the next Open will see.
  Status cp = ddl_history_.empty()
                  ? wal_->Checkpoint(io_pager())
                  : wal_->Checkpoint(io_pager(), ddl_history_, snapshot);
  NoteIoStatus(cp);
}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  auto db = std::unique_ptr<Database>(new Database(options));
  if (options.file_path.empty()) {
    db->pager_ = std::make_unique<MemPager>();
  } else {
    SIM_ASSIGN_OR_RETURN(std::unique_ptr<FilePager> pager,
                         FilePager::Open(options.file_path));
    db->pager_ = std::move(pager);
  }
  if (options.fault_injector != nullptr) {
    db->fault_pager_ = std::make_unique<FaultInjectingPager>(
        db->pager_.get(), options.fault_injector);
  }
  // Retry layer on top of the (possibly fault-injecting) pager: transient
  // failures are absorbed up to the policy's attempt budget before they
  // surface to the buffer pool.
  db->resilient_pager_ = std::make_unique<ResilientPager>(
      db->fault_pager_ != nullptr
          ? static_cast<Pager*>(db->fault_pager_.get())
          : db->pager_.get(),
      options.io_retry);
  if (!options.file_path.empty()) {
    // WAL mode: scan the log and replay anything a previous crash left
    // committed-but-unapplied before the first page is read.
    auto t0 = std::chrono::steady_clock::now();
    SIM_ASSIGN_OR_RETURN(
        db->wal_, WriteAheadLog::Open(options.file_path,
                                      options.fault_injector,
                                      options.io_retry));
    SIM_ASSIGN_OR_RETURN(db->recovered_pages_,
                         db->wal_->Recover(db->io_pager()));
    if (!db->wal_->recovered_quarantine().empty()) {
      // Containment survives the crash: reinstate the bad-page registry
      // the log carried. A malformed payload is dropped — the rot is
      // still on the media, so the next read or scrub re-quarantines it.
      Status loaded = db->quarantine_.Load(db->wal_->recovered_quarantine());
      if (!loaded.ok() && loaded.code() != StatusCode::kCorruption) {
        return loaded;
      }
    }
    db->recovery_us_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  db->pool_ = std::make_unique<BufferPool>(
      db->io_pager(), options.buffer_pool_frames, db->wal_.get());
  db->pool_->set_quarantine(&db->quarantine_);
  db->scrubber_ = std::make_unique<Scrubber>(&db->quarantine_);
  if (options.obs.enabled) {
    db->trace_ = std::make_unique<obs::TraceLog>(options.obs);
  }
  db->RegisterMetrics();
  if (db->wal_ != nullptr) {
    // Self-contained crash recovery, phase 2: reinstall the catalog from
    // the logged DDL and rehydrate the mapper from the logged snapshot,
    // so the reopened database is queryable without re-running anything.
    SIM_RETURN_IF_ERROR(db->RecoverMetadata());
    if (options.group_commit) {
      db->wal_->StartGroupCommit(db->m_group_batch_);
    }
  }
  // Durability hook: a transaction is committed once its dirty pages, a
  // fresh mapper bootstrap snapshot and a commit record are durable in the
  // WAL. Runs under commit_mu_ (from CommitBegin inside the committer's
  // critical section); the appended sequence ends with a commit ticket the
  // committer awaits AFTER releasing commit_mu_, so concurrent writers'
  // fsyncs coalesce in the group-commit thread. The threshold checkpoint
  // happens later (MaybeCheckpoint), once the ticket is durable.
  Database* raw = db.get();
  db->txn_manager_.set_commit_hook([raw](Transaction*) -> Status {
    if (raw->wal_ == nullptr) {
      raw->pending_ticket_ = 0;
      return Status::Ok();
    }
    // Images + snapshot + ticket form one atomic commit sequence in the
    // log: a group-commit frame must never cut between them, or recovery
    // could pair these pages with the previous mapper snapshot.
    raw->wal_->BeginCommitSequence();
    Status s = raw->pool_->FlushAll();
    std::string snapshot;
    if (s.ok() && raw->mapper_ != nullptr) {
      // The bootstrap state (heap page lists, index roots, next
      // surrogate) drifts with every commit; each commit record must be
      // preceded by the snapshot that matches it.
      Result<std::string> snap = MapperRehydrator::Snapshot(*raw->mapper_);
      if (snap.ok()) {
        snapshot = std::move(*snap);
        s = raw->wal_->AppendMetaSnapshot(snapshot);
      } else {
        s = snap.status();
      }
    }
    uint64_t ticket = 0;
    if (s.ok()) s = raw->wal_->AppendCommitBegin(&ticket);
    raw->wal_->EndCommitSequence();
    SIM_RETURN_IF_ERROR(s);
    raw->pending_ticket_ = ticket;
    raw->pending_snapshot_ = std::move(snapshot);
    return Status::Ok();
  });
  if (options.background_scrub && !options.file_path.empty()) {
    db->scrubber_->Start(options.file_path, db->wal_.get(),
                         options.scrub_interval_ms,
                         options.scrub_pages_per_tick);
  }
  return db;
}

Status Database::InstallDdl(std::string_view ddl_text) {
  SIM_ASSIGN_OR_RETURN(std::vector<DdlStatement> statements,
                       DdlParser::Parse(ddl_text, &dir_));
  for (DdlStatement& s : statements) {
    if (s.type_decl != nullptr) {
      SIM_RETURN_IF_ERROR(
          dir_.DefineType(s.type_decl->name, std::move(s.type_decl->type)));
    } else if (s.class_decl != nullptr) {
      SIM_RETURN_IF_ERROR(dir_.AddClass(std::move(*s.class_decl)));
    } else if (s.verify_decl != nullptr) {
      SIM_RETURN_IF_ERROR(dir_.AddVerify(std::move(*s.verify_decl)));
    } else if (s.view_decl != nullptr) {
      SIM_RETURN_IF_ERROR(dir_.AddView(std::move(*s.view_decl)));
    }
  }
  return dir_.Finalize();
}

Status Database::ExecuteDdl(std::string_view ddl_text) {
  // init_mu_ pins the schema-freeze decision: EnsureMapper builds the
  // physical mapping under the same latch, so DDL can never interleave
  // with the first data statement.
  MutexLock init(init_mu_);
  if (mapper_ != nullptr) {
    return Status::FailedPrecondition(
        "schema is frozen: the physical mapping was built at the first data "
        "operation; define the full schema before any data statement "
        "(schema evolution requires a new database)");
  }
  StmtObs sobs(this, m_stmt_ddl_, ddl_text);
  {
    obs::Span span(sobs.log(), sobs.stmt(), "parse");
    SIM_RETURN_IF_ERROR(InstallDdl(ddl_text));
    span.MarkOk();
  }
  ddl_history_.emplace_back(ddl_text);
  if (wal_ != nullptr) {
    // The catalog is durable only through the log: append the batch
    // verbatim and commit, so a crash one instruction later already
    // reopens with this schema. Verbatim matters — replaying the same
    // text reproduces the same class codes the record bytes are tagged
    // with.
    Status logged = wal_->AppendMetaDdl(ddl_text);
    if (logged.ok()) logged = wal_->AppendCommit();
    if (!logged.ok()) {
      NoteIoStatus(logged);
      return logged;
    }
  }
  sobs.MarkOk();
  return Status::Ok();
}

Status Database::RecoverMetadata() {
  recovered_meta_records_ = wal_->stats().recovered_meta_records;
  const std::vector<std::string>& ddl = wal_->recovered_ddl();
  const std::string& snapshot = wal_->recovered_snapshot();
  if (ddl.empty() && snapshot.empty()) return Status::Ok();
  if (ddl.empty()) {
    return Status::Internal(
        "WAL carries a mapper snapshot but no DDL; the log is inconsistent");
  }
  auto t0 = std::chrono::steady_clock::now();
  for (const std::string& text : ddl) {
    Status s = InstallDdl(text);
    if (!s.ok()) {
      return Status::Internal("recovery failed replaying logged DDL: " +
                              s.ToString());
    }
  }
  ddl_history_ = ddl;
  if (!snapshot.empty()) {
    SIM_ASSIGN_OR_RETURN(PhysicalSchema phys,
                         PhysicalSchema::Build(dir_, options_.mapping));
    phys_ = std::make_unique<PhysicalSchema>(std::move(phys));
    SIM_ASSIGN_OR_RETURN(mapper_,
                         MapperRehydrator::Rehydrate(&dir_, phys_.get(),
                                                     pool_.get(), snapshot));
    integrity_ = std::make_unique<IntegrityChecker>(&dir_, mapper_.get());
    SIM_RETURN_IF_ERROR(integrity_->Prepare());
    optimizer_ = std::make_unique<Optimizer>(mapper_.get());
    lock_manager_.SetDirectory(&dir_);
    // Recovery runs inside Open (no scrapers exist yet), but keep the
    // invariant that scrape_* tracks mapper_/optimizer_ whenever set.
    scrape_mapper_.store(mapper_.get(), std::memory_order_release);
    scrape_optimizer_.store(optimizer_.get(), std::memory_order_release);
  }
  // Seal the log: one atomic rewrite leaves exactly the reinstalled
  // metadata as the new baseline. Until this succeeds the old log stays
  // on disk, so a crash mid-recovery just replays the same state again.
  SIM_RETURN_IF_ERROR(wal_->ResetWithBaseline(ddl_history_, snapshot));
  if (options_.recovery_audit && mapper_ != nullptr) {
    // Open is single-threaded: no locks needed for the recovery audit.
    SIM_ASSIGN_OR_RETURN(CheckReport report, AuditLocked());
    // Findings on a degraded database are expected, not fatal: rotted
    // pages (quarantined before the crash, or auto-quarantined just now
    // when the audit's heap scans touched them) answer with DataLoss and
    // REPAIR DATABASE can salvage. Refusing to open would turn contained
    // media damage into a full outage (DESIGN.md §13).
    if (!report.clean() && quarantine_.empty()) {
      return Status::Internal(
          "post-recovery audit found an inconsistency: " +
          report.errors.front().ToString());
    }
  }
  recovery_us_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return Status::Ok();
}

Status Database::EnsureMapper() {
  // Fast path: once published, the physical layer never changes, so the
  // acquire load pairs with the release store below and every later read
  // of mapper_/optimizer_/integrity_ on this thread is safe unlatched.
  if (scrape_mapper_.load(std::memory_order_acquire) != nullptr) {
    return Status::Ok();
  }
  MutexLock init(init_mu_);
  if (mapper_ != nullptr) return Status::Ok();
  if (!dir_.finalized()) {
    SIM_RETURN_IF_ERROR(dir_.Finalize());
  }
  SIM_ASSIGN_OR_RETURN(PhysicalSchema phys,
                       PhysicalSchema::Build(dir_, options_.mapping));
  phys_ = std::make_unique<PhysicalSchema>(std::move(phys));
  SIM_ASSIGN_OR_RETURN(mapper_,
                       LucMapper::Create(&dir_, phys_.get(), pool_.get()));
  integrity_ = std::make_unique<IntegrityChecker>(&dir_, mapper_.get());
  SIM_RETURN_IF_ERROR(integrity_->Prepare());
  optimizer_ = std::make_unique<Optimizer>(mapper_.get());
  // The lock manager expands covers through the now-final subclass DAG.
  lock_manager_.SetDirectory(&dir_);
  // Publish for concurrent metrics scrapes AND for EnsureMapper's own
  // fast path, only now that both engines are fully constructed: the
  // release stores pair with the acquire loads above and in the scrape
  // callbacks registered by RegisterMetrics.
  scrape_mapper_.store(mapper_.get(), std::memory_order_release);
  scrape_optimizer_.store(optimizer_.get(), std::memory_order_release);
  return Status::Ok();
}

Result<LucMapper*> Database::mapper() {
  SIM_RETURN_IF_ERROR(EnsureMapper());
  return mapper_.get();
}

std::vector<std::string> Database::WriteLockSet(
    const std::string& class_name) const {
  std::vector<std::string> out = {class_name};
  Result<std::string> base = dir_.BaseOf(class_name);
  if (!base.ok()) return out;
  std::vector<std::string> family = {*base};
  Result<std::vector<std::string>> desc = dir_.DescendantsOf(*base);
  if (desc.ok()) {
    family.insert(family.end(), desc->begin(), desc->end());
  }
  // Widen across EVAs: maintained inverses write into the range class's
  // units, FK-EVA removal rewrites owner records of other families, and
  // clustered inserts land on pages adopted from EVA-related units. One
  // hop suffices — cascades clear fields in neighbor families but never
  // delete entities there, so no second-order footprint exists.
  for (const std::string& member : family) {
    Result<std::vector<DirectoryManager::ResolvedAttr>> attrs =
        dir_.AllAttributes(member);
    if (!attrs.ok()) continue;
    for (const DirectoryManager::ResolvedAttr& ra : *attrs) {
      if (ra.attr != nullptr && ra.attr->is_eva()) {
        out.push_back(ra.attr->range_class);
      }
    }
  }
  return out;
}

LockManager::Scope* Database::StatementScope(
    std::unique_ptr<LockManager::Scope>* own, Transaction** txn) {
  {
    MutexLock session(session_mu_);
    // Only the transaction's own thread works through its scope; a
    // foreign statement gets a fresh scope and thus waits on the
    // transaction's X locks instead of seeing uncommitted writes.
    if (current_txn_ != nullptr &&
        txn_thread_ == std::this_thread::get_id()) {
      if (txn != nullptr) *txn = current_txn_;
      return txn_scope_.get();
    }
  }
  *own = lock_manager_.NewScope();
  return own->get();
}

Result<CheckReport> Database::AuditLocked() {
  // Deliberately no EnsureMapper(): auditing must never change the
  // database, and a reopened file-backed database without a rebuilt
  // physical layer still gets the catalog + page-checksum layers.
  QueryContext qctx(options_.governor);
  InvariantChecker checker(&dir_, mapper_.get(), pool_.get(), io_pager());
  checker.set_query_context(&qctx);
  // Per-layer audit spans; stmt 0 = not tied to a DML statement (the
  // CHECK DATABASE path additionally wraps this in its own spans).
  checker.set_trace(trace_.get(), 0);
  return checker.AuditAll();
}

Result<CheckReport> Database::Audit() {
  // The audit reads every extent and structure; S-everything excludes
  // writers while letting concurrent readers keep running. Inside an
  // explicit transaction the txn scope (which may hold X) absorbs the S
  // set — a scope never conflicts with itself.
  QueryContext qctx(options_.governor);
  std::unique_ptr<LockManager::Scope> own;
  SIM_RETURN_IF_ERROR(
      lock_manager_.AcquireAllClasses(StatementScope(&own), &qctx));
  return AuditLocked();
}

Result<Scrubber::Report> Database::Scrub() {
  // S-everything: the flush below must not race writer apply, and the
  // durable bytes being verified must be a statement boundary.
  QueryContext qctx(options_.governor);
  std::unique_ptr<LockManager::Scope> scope = lock_manager_.NewScope();
  SIM_RETURN_IF_ERROR(lock_manager_.AcquireAllClasses(scope.get(), &qctx));
  return ScrubLocked();
}

Result<Scrubber::Report> Database::ScrubLocked() {
  // The scrubber reads the durable file directly (it bypasses the buffer
  // pool so rot on media is seen, not masked by cached frames); flush
  // first so it verifies current content. Detection must keep working
  // after disk-full, so a kDiskFull flush degrades to scrubbing whatever
  // IS durable instead of failing.
  Status flushed = pool_->FlushAll();
  if (!flushed.ok()) {
    NoteIoStatus(flushed);
    if (flushed.code() != StatusCode::kDiskFull) return flushed;
  }
  std::vector<PageId> heap_pages;
  if (mapper_ != nullptr) heap_pages = mapper_->HeapPages();
  Scrubber::Report rep;
  SIM_RETURN_IF_ERROR(
      scrubber_->ScrubPages(io_pager(), wal_.get(), heap_pages, &rep));
  return rep;
}

Result<Database::RepairResult> Database::Repair() {
  {
    MutexLock session(session_mu_);
    if (current_txn_ != nullptr) {
      return Status::InvalidArgument(
          "REPAIR DATABASE cannot run inside an explicit transaction");
    }
  }
  if (read_only_) return ReadOnlyError();
  SIM_RETURN_IF_ERROR(EnsureMapper());
  // Exclusive access to every family: the repairer rewrites pages and
  // rebuilds derived structures behind the public API's back, so neither
  // readers nor writers may run concurrently.
  QueryContext qctx(options_.governor);
  std::unique_ptr<LockManager::Scope> scope = lock_manager_.NewScope();
  SIM_RETURN_IF_ERROR(lock_manager_.AcquireClasses(
      scope.get(), dir_.class_names(), LockManager::Mode::kExclusive, &qctx));
  RepairResult res;
  // Detect: a full sweep finds rot no read has touched yet, so the
  // repairer never trusts a page this pass has not verified.
  SIM_ASSIGN_OR_RETURN(res.scrub, ScrubLocked());
  // Contain → repair: salvage survivors, reformat the quarantined pages,
  // rebuild every derived structure from the base records.
  Repairer repairer(mapper_.get(), pool_.get(), io_pager(), wal_.get(),
                    &quarantine_);
  SIM_RETURN_IF_ERROR(repairer.Run(&res.report));
  // Durability epilogue. The closing audit reads the durable file
  // directly, so the repair's page images must be checkpointed into it,
  // not just logged — and the (now empty) quarantine registry must be the
  // one recovery would reinstate after a crash.
  Status step = pool_->FlushAll();
  if (step.ok() && wal_ != nullptr) {
    step = wal_->AppendMetaQuarantine(quarantine_.Encode());
    std::string snapshot;
    if (step.ok()) {
      Result<std::string> snap = MapperRehydrator::Snapshot(*mapper_);
      if (snap.ok()) {
        snapshot = std::move(*snap);
        step = wal_->AppendMetaSnapshot(snapshot);
      } else {
        step = snap.status();
      }
    }
    if (step.ok()) step = wal_->AppendCommit();
    if (step.ok()) {
      step = ddl_history_.empty()
                 ? wal_->Checkpoint(io_pager())
                 : wal_->Checkpoint(io_pager(), ddl_history_, snapshot);
    }
  }
  NoteIoStatus(step);
  SIM_RETURN_IF_ERROR(step);
  // Still holding X-everything (a fresh Audit() scope would self-conflict
  // with it on this thread).
  SIM_ASSIGN_OR_RETURN(CheckReport report, AuditLocked());
  res.audit_findings = report.errors.size();
  return res;
}

namespace {

// The two-column metric/value result of SHOW METRICS, SCRUB DATABASE and
// REPAIR DATABASE.
ResultSet MetricResult(const std::vector<obs::Sample>& samples) {
  ResultSet rs;
  rs.columns = {"metric", "value"};
  for (const obs::Sample& s : samples) {
    Row row;
    row.values = {Value::Str(s.name),
                  Value::Int(static_cast<int64_t>(s.value))};
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

// Pulls every row of an open cursor into a ResultSet, then closes it.
Result<ResultSet> Drain(Database::Cursor* cur) {
  ResultSet rs;
  rs.columns = cur->columns();
  rs.structured = cur->structured();
  Row row;
  while (true) {
    SIM_ASSIGN_OR_RETURN(bool has, cur->Next(&row));
    if (!has) break;
    rs.rows.push_back(std::move(row));
  }
  SIM_RETURN_IF_ERROR(cur->Close());
  return rs;
}

}  // namespace

// One Retrieve from plan to close. `qt` owns the nodes and bound
// expressions the operator tree references (by node id and by stable heap
// pointer), so the two stay together, and `qt` and `qctx` (which `cx`
// points at) must be populated before `cx` is built.
struct Database::Cursor::Impl {
  QueryTree qt;
  // The validated operator tree; plan.access is the strategy it realizes.
  PhysicalPlan plan;
  std::unique_ptr<QueryContext> qctx;
  std::unique_ptr<ExecContext> cx;
  bool open = false;
  bool done = false;
  // Sticky terminal status: once Next fails, every further Next returns
  // the same status without re-entering the operator tree.
  Status terminal = Status::Ok();
  // Trace context: the "execute" span runs from Open to the first Close,
  // when the event is recorded with the final counts.
  Database* db = nullptr;
  uint64_t stmt_id = 0;
  uint64_t open_us = 0;
};

Result<std::unique_ptr<Database::Cursor::Impl>> Database::PlanRetrieve(
    const Stmt& stmt, std::string_view entry, const StmtObs& sobs) {
  SIM_RETURN_IF_ERROR(EnsureMapper());
  if (stmt.kind != StmtKind::kRetrieve) {
    return Status::InvalidArgument(
        std::string(entry) +
        " expects a Retrieve statement; run updates through ExecuteUpdate");
  }
  auto q = std::make_unique<Cursor::Impl>();
  {
    obs::Span span(sobs.log(), sobs.stmt(), "bind");
    Binder binder(&dir_);
    SIM_ASSIGN_OR_RETURN(
        q->qt, binder.BindRetrieve(static_cast<const RetrieveStmt&>(stmt)));
    span.MarkOk();
  }
  AccessPlan access;
  if (options_.use_optimizer) {
    obs::Span span(sobs.log(), sobs.stmt(), "optimize");
    SIM_ASSIGN_OR_RETURN(access, optimizer_->Optimize(q->qt));
    span.AddAttr("strategies",
                 static_cast<uint64_t>(access.strategies_considered));
    span.AddAttr("est_cost_blocks", static_cast<uint64_t>(access.est_cost));
    span.MarkOk();
  }
  obs::Span span(sobs.log(), sobs.stmt(), "map");
  SIM_ASSIGN_OR_RETURN(
      q->plan,
      PhysicalPlan::Build(q->qt, options_.use_optimizer ? &access : nullptr,
                          mapper_.get()));
  // Layer-3 audit: refuse to run a structurally malformed operator tree.
  SIM_RETURN_IF_ERROR(ValidatePlanOrError(q->plan, q->qt));
  if (options_.paranoid_checks) {
    q->plan.root = std::make_unique<ProtocolCheck>(std::move(q->plan.root));
  }
  span.MarkOk();
  return q;
}

Result<Database::Cursor> Database::OpenPlanned(std::unique_ptr<Cursor::Impl> q,
                                               const StmtObs& sobs) {
  q->qctx = std::make_unique<QueryContext>(options_.governor);
  // Shared locks on the extents the query reads (the lock manager widens
  // each class to its subclasses), held until Close: concurrent readers
  // proceed, and a writer to these families waits until the stream is
  // done, never seeing a half-drained scan.
  std::vector<std::string> classes;
  for (const QtNode& n : q->qt.nodes) {
    if (!n.class_name.empty()) classes.push_back(n.class_name);
  }
  std::unique_ptr<LockManager::Scope> own;
  SIM_RETURN_IF_ERROR(lock_manager_.AcquireClasses(
      StatementScope(&own), classes, LockManager::Mode::kShared,
      q->qctx.get()));
  if (own != nullptr) q->qctx->AttachResource(std::move(own));
  q->cx = std::make_unique<ExecContext>(&q->qt, mapper_.get(), q->qctx.get());
  q->db = this;
  q->stmt_id = sobs.stmt();
  if (trace_ != nullptr) q->open_us = trace_->NowUs();
  SIM_RETURN_IF_ERROR(q->plan.root->Open(*q->cx));
  q->open = true;
  return Cursor(std::move(q));
}

void Database::ObserveExec(const Cursor::Impl& q, bool ok) {
  const ExecStats& stats = q.cx->stats;
  {
    MutexLock l(stmt_mu_);
    last_plan_ = q.plan.access;
    last_exec_stats_ = stats;
  }
  if (!options_.obs.enabled) return;
  m_exec_combinations_->Add(stats.combinations_examined);
  m_exec_rows_->Add(stats.rows_emitted);
  m_gov_checks_->Add(q.qctx->stats().checks);
  if (!q.qctx->terminal().ok()) m_gov_trips_->Increment();
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.stmt = q.stmt_id;
    e.span = "execute";
    e.start_us = q.open_us;
    e.dur_us = trace_->NowUs() - q.open_us;
    e.ok = ok;
    e.attrs.emplace_back("rows", stats.rows_emitted);
    e.attrs.emplace_back("combinations", stats.combinations_examined);
    trace_->Record(std::move(e));
  }
}

Result<ResultSet> Database::ExecuteQuery(std::string_view dml) {
  StmtObs sobs(this, m_stmt_queries_, dml);
  SIM_ASSIGN_OR_RETURN(StmtPtr stmt, sobs.Parse(dml));
  if (stmt->kind == StmtKind::kShowMetrics) {
    // Deliberately before EnsureMapper(): the metrics surface must work on
    // a schemaless or degraded (post-recovery) database.
    ResultSet rs = MetricResult(metrics_.Samples());
    sobs.MarkOk();
    return rs;
  }
  if (stmt->kind == StmtKind::kScrub) {
    // Deliberately before EnsureMapper(): media verification must work on
    // a schemaless or degraded database. Scrub() decodes records only when
    // a physical layer already exists.
    obs::Span span(sobs.log(), sobs.stmt(), "execute");
    SIM_ASSIGN_OR_RETURN(Scrubber::Report rep, Scrub());
    ResultSet rs = MetricResult({
        {"pages_scanned", rep.pages_scanned},
        {"checksum_failures", rep.checksum_failures},
        {"record_failures", rep.record_failures},
        {"pages_quarantined", rep.pages_quarantined},
        {"pages_skipped", rep.pages_skipped},
        {"quarantined_total", quarantine_.size()},
    });
    span.AddAttr("errors", rep.checksum_failures + rep.record_failures);
    span.MarkOk();
    sobs.MarkOk();
    return rs;
  }
  if (stmt->kind == StmtKind::kRepair) {
    obs::Span span(sobs.log(), sobs.stmt(), "execute");
    SIM_ASSIGN_OR_RETURN(RepairResult res, Repair());
    ResultSet rs = MetricResult({
        {"pages_reformatted", res.report.pages_reformatted},
        {"records_dropped", res.report.records_dropped},
        {"entities_dropped", res.report.entities_dropped},
        {"fields_nulled", res.report.fields_nulled},
        {"mv_values_dropped", res.report.mv_values_dropped},
        {"eva_pairs_dropped", res.report.eva_pairs_dropped},
        {"structures_rebuilt", res.report.structures_rebuilt},
        {"audit_findings", res.audit_findings},
    });
    span.AddAttr("pages_reformatted", res.report.pages_reformatted);
    span.MarkOk();
    sobs.MarkOk();
    return rs;
  }
  if (stmt->kind == StmtKind::kCheck) {
    SIM_RETURN_IF_ERROR(EnsureMapper());
    obs::Span span(sobs.log(), sobs.stmt(), "execute");
    SIM_ASSIGN_OR_RETURN(CheckReport report, Audit());
    ResultSet rs;
    rs.columns = {"layer", "invariant", "object", "surrogate", "message"};
    for (const CheckError& e : report.errors) {
      Row row;
      row.values = {Value::Str(CheckLayerName(e.layer)),
                    Value::Str(e.invariant), Value::Str(e.object),
                    e.surrogate == kInvalidSurrogate
                        ? Value::Null()
                        : Value::Surrogate(e.surrogate),
                    Value::Str(e.message)};
      rs.rows.push_back(std::move(row));
    }
    span.AddAttr("findings", report.errors.size());
    span.MarkOk();
    sobs.MarkOk();
    return rs;
  }
  SIM_ASSIGN_OR_RETURN(std::unique_ptr<Cursor::Impl> q,
                       PlanRetrieve(*stmt, "ExecuteQuery", sobs));
  SIM_ASSIGN_OR_RETURN(Cursor cur, OpenPlanned(std::move(q), sobs));
  SIM_ASSIGN_OR_RETURN(ResultSet rs, Drain(&cur));
  sobs.MarkOk();
  return rs;
}

Database::Cursor::Cursor(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Database::Cursor::Cursor(Cursor&&) noexcept = default;
Database::Cursor& Database::Cursor::operator=(Cursor&&) noexcept = default;

Database::Cursor::~Cursor() {
  // A destructor cannot propagate failure, but a silently vanishing
  // Status is how teardown bugs hide: when the implicit Close fails, count
  // the drop (simdb_dropped_status_total) and, under paranoid_checks, say
  // so out loud. Callers who care about teardown errors call Close()
  // themselves — an explicit Close makes the destructor a no-op.
  if (impl_ == nullptr) return;
  Status s = Close();
  if (!s.ok()) {
    Database* db = impl_->db;
    db->dropped_statuses_.fetch_add(1, std::memory_order_relaxed);
    if (db->m_dropped_status_ != nullptr) db->m_dropped_status_->Increment();
    if (db->options_.paranoid_checks) {
      std::fprintf(stderr,
                   "simdb: cursor destroyed with unconsumed close status: %s\n",
                   s.ToString().c_str());
    }
  }
}

const std::vector<std::string>& Database::Cursor::columns() const {
  return impl_->qt.target_labels;
}

bool Database::Cursor::structured() const {
  return impl_->qt.mode == OutputMode::kStructure;
}

// The engine's one drain loop: ExecuteQuery and ExplainAnalyze pull rows
// through here exactly as a caller of OpenCursor does.
Result<bool> Database::Cursor::Next(Row* row) {
  Impl* im = impl_.get();
  if (im == nullptr) return false;
  if (!im->terminal.ok()) return im->terminal;
  if (!im->open || im->done) return false;
  Result<bool> has = im->plan.root->Next(*im->cx, row);
  if (has.ok() && *has) {
    Status charged = im->qctx->ChargeRows();
    if (!charged.ok()) has = charged;
  }
  if (!has.ok()) {
    im->terminal = has.status();
    im->terminal.Update(Close());
    return im->terminal;
  }
  if (*has) {
    ++im->cx->stats.rows_emitted;
  } else {
    im->done = true;
  }
  return *has;
}

void Database::Cursor::Cancel() {
  if (impl_ != nullptr) impl_->qctx->RequestCancel();
}

Status Database::Cursor::Close() {
  Impl* im = impl_.get();
  if (im == nullptr || !im->open) return Status::Ok();
  im->open = false;
  Status s = im->plan.root->Close(*im->cx);
  im->db->ObserveExec(*im, im->terminal.ok() && s.ok());
  // Drop the cursor's shared locks now, not at destruction: once the
  // operator tree is closed the cursor reads nothing more, and a pending
  // writer can proceed.
  im->qctx->ReleaseResources();
  return s;
}

ExecStats Database::Cursor::stats() const {
  return impl_ != nullptr ? impl_->cx->stats : ExecStats();
}

QueryContext::Stats Database::Cursor::governor_stats() const {
  return impl_ != nullptr ? impl_->qctx->stats() : QueryContext::Stats();
}

Result<Database::Cursor> Database::OpenCursor(std::string_view dml) {
  StmtObs sobs(this, m_stmt_queries_, dml);
  SIM_ASSIGN_OR_RETURN(StmtPtr stmt, sobs.Parse(dml));
  SIM_ASSIGN_OR_RETURN(std::unique_ptr<Cursor::Impl> q,
                       PlanRetrieve(*stmt, "OpenCursor", sobs));
  SIM_ASSIGN_OR_RETURN(Cursor cur, OpenPlanned(std::move(q), sobs));
  sobs.MarkOk();
  return cur;
}

Result<std::string> Database::Explain(std::string_view dml) {
  StmtObs sobs(this, m_stmt_queries_, dml);
  SIM_ASSIGN_OR_RETURN(StmtPtr stmt, sobs.Parse(dml));
  SIM_ASSIGN_OR_RETURN(std::unique_ptr<Cursor::Impl> q,
                       PlanRetrieve(*stmt, "Explain", sobs));
  sobs.MarkOk();
  return q->qt.DebugString() + q->plan.access.Describe() + "\n" +
         q->plan.Describe(false);
}

Result<std::string> Database::ExplainAnalyze(std::string_view dml) {
  StmtObs sobs(this, m_stmt_queries_, dml);
  SIM_ASSIGN_OR_RETURN(StmtPtr stmt, sobs.Parse(dml));
  SIM_ASSIGN_OR_RETURN(std::unique_ptr<Cursor::Impl> q,
                       PlanRetrieve(*stmt, "ExplainAnalyze", sobs));
  SIM_ASSIGN_OR_RETURN(Cursor cur, OpenPlanned(std::move(q), sobs));
  // Every operator's Next now measures wall time and buffer-pool deltas,
  // so the drain leaves actual row counts and timings in the tree.
  cur.impl_->cx->time_operators = true;
  SIM_RETURN_IF_ERROR(Drain(&cur).status());
  const Cursor::Impl& im = *cur.impl_;
  // One "op" event per operator, so the NDJSON log carries the same
  // per-operator timings the rendered tree prints.
  if (obs::TraceLog* log = trace_.get()) {
    uint64_t now = log->NowUs();
    std::function<void(const PhysicalOperator*)> emit =
        [&](const PhysicalOperator* op) {
          obs::TraceEvent e;
          e.stmt = sobs.stmt();
          e.span = "op";
          e.start_us = now;
          e.dur_us = op->time_us();
          e.detail = op->Describe();
          e.attrs.emplace_back("actual_rows", op->actual_rows());
          e.attrs.emplace_back("pool_hits", op->pool_hits());
          e.attrs.emplace_back("pool_misses", op->pool_misses());
          log->Record(std::move(e));
          for (const PhysicalOperator* child : op->Children()) emit(child);
        };
    emit(im.plan.root.get());
  }
  sobs.MarkOk();
  return im.qt.DebugString() + im.plan.access.Describe() + "\n" +
         im.plan.Describe(true);
}

Result<int> Database::ExecuteUpdate(std::string_view dml) {
  if (read_only_) return ReadOnlyError();
  StmtObs sobs(this, m_stmt_updates_, dml);
  SIM_RETURN_IF_ERROR(EnsureMapper());
  SIM_ASSIGN_OR_RETURN(StmtPtr stmt, sobs.Parse(dml));
  return ApplyUpdate(*stmt, &sobs);
}

Result<int> Database::ApplyUpdate(const Stmt& stmt, StmtObs* sobs) {
  std::string target;
  switch (stmt.kind) {
    case StmtKind::kInsert:
      target = static_cast<const InsertStmt&>(stmt).class_name;
      break;
    case StmtKind::kModify:
      target = static_cast<const ModifyStmt&>(stmt).class_name;
      break;
    case StmtKind::kDelete:
      target = static_cast<const DeleteStmt&>(stmt).class_name;
      break;
    case StmtKind::kRetrieve:
    case StmtKind::kCheck:
    case StmtKind::kShowMetrics:
    case StmtKind::kScrub:
    case StmtKind::kRepair:
      return Status::InvalidArgument(
          "ExecuteUpdate expects Insert/Modify/Delete; use ExecuteQuery");
  }

  // An explicit transaction supplies its transaction and lock scope (the
  // driving thread owns both between Begin and Commit/Rollback);
  // autocommit builds statement-local ones.
  Transaction* txn = nullptr;
  std::unique_ptr<LockManager::Scope> stmt_scope;
  LockManager::Scope* scope = StatementScope(&stmt_scope, &txn);
  const bool implicit_txn = txn == nullptr;

  // Exclusive locks before any transaction state exists, so a blocked
  // acquisition that aborts (deadlock, deadline, cancel) leaves nothing
  // to clean up. The lock manager widens each name to its whole family.
  QueryContext qctx(options_.governor);
  Status locked = lock_manager_.AcquireClasses(scope, WriteLockSet(target),
                                               LockManager::Mode::kExclusive,
                                               &qctx);
  if (locked.ok() && options_.paranoid_checks) {
    // The post-statement audit reads everything; taking S-everything into
    // the same scope keeps it self-compatible with the X set above.
    locked = lock_manager_.AcquireAllClasses(scope, &qctx);
  }
  SIM_RETURN_IF_ERROR(locked);

  if (implicit_txn) txn = txn_manager_.Begin();
  size_t savepoint = txn->undo_depth();
  obs::Span exec_span(sobs->log(), sobs->stmt(), "execute");
  Result<UpdateExecutor::UpdateResult> result =
      Status::Internal("statement not dispatched");
  uint64_t ticket = 0;
  {
    // Apply + commit sequence under commit_mu_: the WAL's per-commit
    // mapper snapshot must capture statement boundaries, never another
    // writer mid-apply, and an aborting statement's undo must likewise be
    // invisible to concurrent flushes.
    MutexLock commit_lock(commit_mu_);
    UpdateExecutor update(mapper_.get(), integrity_.get());
    switch (stmt.kind) {
      case StmtKind::kInsert:
        result = update.ExecuteInsert(static_cast<const InsertStmt&>(stmt),
                                      txn);
        break;
      case StmtKind::kModify:
        result = update.ExecuteModify(static_cast<const ModifyStmt&>(stmt),
                                      txn);
        break;
      case StmtKind::kDelete:
        result = update.ExecuteDelete(static_cast<const DeleteStmt&>(stmt),
                                      txn);
        break;
      default:
        break;
    }
    if (!result.ok()) {
      // Statement-level rollback; the enclosing user transaction survives.
      // ENOSPC anywhere in the statement degrades the database to
      // read-only mode once the rollback has restored in-memory state.
      NoteIoStatus(result.status());
      if (implicit_txn) {
        SIM_RETURN_IF_ERROR(txn_manager_.Abort(txn));
      } else {
        SIM_RETURN_IF_ERROR(txn->RollbackTo(savepoint));
      }
      return result.status();
    }
    if (implicit_txn) {
      Status committed = txn_manager_.CommitBegin(txn);
      if (!committed.ok()) {
        // Commit could not be logged; roll the statement back so the
        // in-memory state matches what recovery will reconstruct.
        NoteIoStatus(committed);
        committed.Update(txn_manager_.Abort(txn));
        return committed;
      }
      ticket = pending_ticket_;
    }
  }
  if (implicit_txn) {
    // Durability wait outside commit_mu_: concurrent writers append their
    // own commit sequences meanwhile, and the group-commit thread settles
    // the whole batch with one fsync. The exclusive locks stay held until
    // the ticket resolves (strictness): no reader ever observes data whose
    // commit could still fail.
    Status durable =
        wal_ != nullptr ? wal_->WaitCommitDurable(ticket) : Status::Ok();
    if (!durable.ok()) {
      NoteIoStatus(durable);
      MutexLock commit_lock(commit_mu_);
      durable.Update(txn_manager_.Abort(txn));
      return durable;
    }
    txn_manager_.CommitFinish(txn);
    MaybeCheckpoint();
  }
  if (options_.paranoid_checks) {
    // Still holding X(family)+S-everything, so the audit sees a stable
    // statement boundary even with concurrent writers queued.
    SIM_ASSIGN_OR_RETURN(CheckReport report, AuditLocked());
    if (!report.clean()) {
      return Status::Internal("paranoid audit after update statement: " +
                              report.errors.front().ToString());
    }
  }
  exec_span.AddAttr("entities",
                    static_cast<uint64_t>(result->entities_affected));
  exec_span.MarkOk();
  sobs->MarkOk();
  return result->entities_affected;
}

Status Database::ExecuteScript(std::string_view dml_script) {
  if (read_only_) return ReadOnlyError();
  SIM_ASSIGN_OR_RETURN(std::vector<StmtPtr> statements,
                       DmlParser::ParseScript(dml_script));
  for (const StmtPtr& stmt : statements) {
    if (stmt->kind != StmtKind::kInsert && stmt->kind != StmtKind::kModify &&
        stmt->kind != StmtKind::kDelete) {
      return Status::InvalidArgument(
          "ExecuteScript accepts update statements only");
    }
  }
  // Re-execute through the single-statement path to get per-statement
  // atomicity; statements were already validated to parse.
  SIM_RETURN_IF_ERROR(EnsureMapper());
  for (const StmtPtr& stmt : statements) {
    const char* kind_name = stmt->kind == StmtKind::kInsert   ? "Insert"
                            : stmt->kind == StmtKind::kModify ? "Modify"
                                                              : "Delete";
    StmtObs sobs(this, m_stmt_updates_, std::string("script: ") + kind_name);
    SIM_RETURN_IF_ERROR(ApplyUpdate(*stmt, &sobs).status());
  }
  return Status::Ok();
}

void Database::MaybeCheckpoint() {
  if (wal_ == nullptr ||
      wal_->size_bytes() <= options_.wal_checkpoint_bytes) {
    return;
  }
  // A failed threshold checkpoint is retried after a later commit (the
  // log simply stays large), but disk-full must degrade to read-only.
  MutexLock commit_lock(commit_mu_);
  // Settle every issued commit ticket first: a pending ticket's images
  // are not yet in the committed set and a checkpoint would drop them.
  // New committers are excluded by commit_mu_.
  Status step = wal_->DrainCommits();
  if (step.ok()) {
    // pending_snapshot_ is the snapshot of the latest commit — exactly
    // the baseline the truncated log must carry.
    step = ddl_history_.empty()
               ? wal_->Checkpoint(io_pager())
               : wal_->Checkpoint(io_pager(), ddl_history_,
                                  pending_snapshot_);
  }
  NoteIoStatus(step);
}

Status Database::Begin() {
  if (read_only_) return ReadOnlyError();
  SIM_RETURN_IF_ERROR(EnsureMapper());
  MutexLock session(session_mu_);
  if (current_txn_ != nullptr) {
    return Status::InvalidArgument("a transaction is already active");
  }
  current_txn_ = txn_manager_.Begin();
  txn_thread_ = std::this_thread::get_id();
  txn_scope_ = lock_manager_.NewScope();
  return Status::Ok();
}

Status Database::Commit() {
  MutexLock session(session_mu_);
  if (current_txn_ == nullptr) {
    return Status::InvalidArgument("no active transaction");
  }
  Transaction* txn = current_txn_;
  uint64_t ticket = 0;
  Status s;
  {
    MutexLock commit_lock(commit_mu_);
    s = txn_manager_.CommitBegin(txn);
    if (s.ok()) ticket = pending_ticket_;
  }
  if (s.ok() && wal_ != nullptr) s = wal_->WaitCommitDurable(ticket);
  if (s.ok()) {
    txn_manager_.CommitFinish(txn);
  } else {
    // Durability failed; undo the transaction so memory and disk agree.
    NoteIoStatus(s);
    MutexLock commit_lock(commit_mu_);
    s.Update(txn_manager_.Abort(txn));
  }
  current_txn_ = nullptr;
  txn_scope_.reset();  // strict 2PL: locks release only now
  if (s.ok()) MaybeCheckpoint();
  return s;
}

Status Database::Rollback() {
  MutexLock session(session_mu_);
  if (current_txn_ == nullptr) {
    return Status::InvalidArgument("no active transaction");
  }
  Status s;
  {
    // Undo mutates mapper state; exclude concurrent writers' flushes.
    MutexLock commit_lock(commit_mu_);
    s = txn_manager_.Abort(current_txn_);
  }
  current_txn_ = nullptr;
  txn_scope_.reset();
  return s;
}

}  // namespace sim
