#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <random>

namespace simbench {
namespace {

// Why each workload (BENCHMARK.json has the same in one line each).
// lookup: the front end and shared latches do the work (small in-memory
// database, point reads, repeated texts). scan: the executor, the LUC
// mapper and the buffer pool do it (file-backed, ~6x the pool, analytic
// drains). mixed: the only one with lock waits, WAL appends, group commit,
// fsync and checkpoints on the blocking path. A set-up takes ~0.2 s in
// memory and ~4 s on file; the set-up counts keep each run's share near
// 3 s and 12 s. lookup and mixed run two clients, not one per vCPU: on a
// shared 4-vCPU host whose hypervisor takes CPU time away in bursts,
// lookup runs with four clients lost 8-24% of the machine's time while
// runs with two, interleaved with them, lost 1-3%; four clients' p99
// spread 0.57 (quartile distance over the median of ten runs), two's 0.06.
constexpr WorkloadSpec kWorkloads[] = {
    {"lookup", 2, {20, 200, 200, 2000}, false, false, false, 15},
    {"scan", 1, {20, 2000, 2000, 20000}, true, false, false, 3},
    {"mixed", 2, {20, 2000, 2000, 20000}, true, true, true, 3},
};

// Share of write slots among mixed statements (an Insert+Delete pair fills
// one slot with two statements). Every write X-locks the Person family, so
// reads that arrive during its commit wait. At 5% the writers held that
// lock most of the time and throughput swung 2x between runs. At 1% (four
// clients) the median read stayed in the no-wait mode, but ~4% of reads
// waited, so p99 fell among the waits and swung 2-4x from run to run. At
// 0.2% (two clients) 0.36% of lock acquisitions wait, so p99 stays in the
// no-wait mode too, and a 25 s run still holds ~1,300 updates.
constexpr double kMixedWriteShare = 0.002;

Cell Str(const std::string& s) { return Cell::Str(s); }
Cell Int(int64_t v) { return Cell::Int(v); }

std::string Ssn(int64_t ssn) {
  return " Where soc-sec-no = " + std::to_string(ssn);
}

// Zipf(s) over n keys; which keys are hot is a seeded permutation.
class ZipfKeys {
 public:
  ZipfKeys(int n, double s, std::mt19937_64* rng) : cdf_(n), perm_(n) {
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(i + 1.0, s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    std::iota(perm_.begin(), perm_.end(), 0);
    std::shuffle(perm_.begin(), perm_.end(), *rng);
  }
  int Draw(std::mt19937_64* rng) const {
    double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return perm_[std::min(r, perm_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int> perm_;
};

Cell AdvisorName(const Model& m, const Model::Student& s) {
  return s.advisor >= 0 ? Str(m.instructors[s.advisor].name) : Cell::Null();
}

Cell AdvisorDepartment(const Model& m, const Model::Student& s) {
  if (s.advisor < 0) return Cell::Null();
  return Str(m.departments[m.instructors[s.advisor].department].name);
}

// One row per value of a multi-valued attribute, in any order; an empty
// set still yields one row, with null in its place.
template <typename Fn>
void AddPerValue(Expected* e, const std::vector<int>& values, Cell head,
                 Fn cell_of) {
  e->Add({head, values.empty() ? Cell::Null() : cell_of(values[0])});
  for (size_t i = 1; i < values.size(); ++i) {
    e->AddToGroup({head, cell_of(values[i])});
  }
}

// ---------------------------------------------------------------- lookup

class LookupWorkload : public Workload {
 public:
  LookupWorkload(const Model& m, uint64_t seed)
      : m_(m), enrolled_(m.EnrolledByCourse()), rng_(seed),
        students_(static_cast<int>(m.students.size()), 1.0, &rng_),
        instructors_(static_cast<int>(m.instructors.size()), 1.0, &rng_),
        courses_(static_cast<int>(m.courses.size()), 1.0, &rng_) {}

  std::unique_ptr<Client> NewClient(int index, uint64_t seed) override {
    return std::make_unique<LookupClient>(this, seed * 7919 + index);
  }

 private:
  class LookupClient : public Client {
   public:
    LookupClient(const LookupWorkload* w, uint64_t seed) : w_(w), rng_(seed) {}

    void Next(Op* op) override {
      const Model& m = w_->m_;
      op->kind = Op::Kind::kQuery;
      op->stream = false;
      expected_ = Expected();
      int t = template_(rng_);
      if (t == 3) {
        const Model::Instructor& i =
            m.instructors[w_->instructors_.Draw(&rng_)];
        op->text =
            "From Instructor Retrieve name, count(advisees)" + Ssn(i.ssn);
        expected_.Add({Str(i.name), Int(i.advisees.size())});
        return;
      }
      if (t == 4) {
        int c = w_->courses_.Draw(&rng_);
        op->text = "From Course Retrieve title, count(students-enrolled) "
                   "Where course-no = " +
                   std::to_string(m.courses[c].course_no);
        expected_.Add({Str(m.courses[c].title), Int(w_->enrolled_[c].size())});
        return;
      }
      const Model::Student& s = m.students[w_->students_.Draw(&rng_)];
      switch (t) {
        case 0:
          op->text = "From Student Retrieve name, student-nbr" + Ssn(s.ssn);
          expected_.Add({Str(s.name), Int(s.student_nbr)});
          break;
        case 1:
          op->text = "From Student Retrieve name, name of advisor, "
                     "name of major-department" + Ssn(s.ssn);
          expected_.Add({Str(s.name), AdvisorName(m, s),
                         Str(m.departments[s.major].name)});
          break;
        case 2:
          op->text = "From Student Retrieve name, "
                     "name of assigned-department of advisor" + Ssn(s.ssn);
          expected_.Add({Str(s.name), AdvisorDepartment(m, s)});
          break;
        default:
          op->text = "From Student Retrieve name, title of courses-enrolled" +
                     Ssn(s.ssn);
          AddPerValue(&expected_, s.courses, Str(s.name),
                      [&](int c) { return Str(m.courses[c].title); });
          break;
      }
    }

    std::string CheckRows(const Op&,
                          const std::vector<sim::Row>& rows) override {
      return CheckAnswer(expected_, rows);
    }

   private:
    const LookupWorkload* w_;
    std::mt19937_64 rng_;
    // bare, 2 EVA hops, 2-hop chain, MV aggregate (instructor), MV
    // aggregate (course), MV EVA values.
    std::discrete_distribution<int> template_{25, 20, 15, 15, 15, 10};
    Expected expected_;
  };

  const Model& m_;
  std::vector<std::vector<int>> enrolled_;
  std::mt19937_64 rng_;
  ZipfKeys students_, instructors_, courses_;
};

// ------------------------------------------------------------------ scan

class ScanWorkload : public Workload {
 public:
  ScanWorkload(const Model& m) : m_(m) {
    std::vector<std::vector<int>> enrolled = m.EnrolledByCourse();
    {  // full drain with a 2-hop EVA chain
      Heavy h{"From Student Retrieve name, name of advisor, "
              "name of assigned-department of advisor", {}};
      for (const Model::Student& s : m.students) {
        h.answer.Add({Str(s.name), AdvisorName(m, s), AdvisorDepartment(m, s)});
      }
      heavy_.push_back(std::move(h));
    }
    {
      Heavy h{"From Instructor Retrieve name, count(advisees)", {}};
      for (const Model::Instructor& i : m.instructors) {
        h.answer.Add({Str(i.name), Int(i.advisees.size())});
      }
      heavy_.push_back(std::move(h));
    }
    {
      Heavy h{"From Course Retrieve title, count(students-enrolled)", {}};
      for (size_t c = 0; c < m.courses.size(); ++c) {
        h.answer.Add({Str(m.courses[c].title), Int(enrolled[c].size())});
      }
      heavy_.push_back(std::move(h));
    }
    for (size_t d = 0; d < m.departments.size(); d += 7) {  // some
      Heavy h{"From Instructor Retrieve name Where \"" +
                  m.departments[d].name +
                  "\" = some(name of major-department of advisees)",
              {}};
      for (const Model::Instructor& i : m.instructors) {
        bool any = false;
        for (int s : i.advisees) any = any || m.students[s].major == int(d);
        if (any) h.answer.Add({Str(i.name)});
      }
      heavy_.push_back(std::move(h));
    }
    for (int min_credits : {4, 5}) {  // all
      Heavy h{"From Student Retrieve name Where " +
                  std::to_string(min_credits) +
                  " <= all(credits of courses-enrolled)",
              {}};
      for (const Model::Student& s : m.students) {
        bool all = true;
        for (int c : s.courses) {
          all = all && m.courses[c].credits >= min_credits;
        }
        if (all) h.answer.Add({Str(s.name)});
      }
      heavy_.push_back(std::move(h));
    }
    {
      Heavy h{"From Course Retrieve title, "
              "count distinct (transitive(prerequisites))", {}};
      for (size_t c = 0; c < m.courses.size(); ++c) {
        h.answer.Add({Str(m.courses[c].title),
                      Int(m.PrerequisiteClosure(static_cast<int>(c)))});
      }
      heavy_.push_back(std::move(h));
    }
    {
      Heavy h{"From Student Retrieve name, student-nbr Order By name Desc", {}};
      std::vector<int> order(m.students.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return m.students[a].name > m.students[b].name;
      });
      for (int s : order) {
        h.answer.Add({Str(m.students[s].name), Int(m.students[s].student_nbr)});
      }
      heavy_.push_back(std::move(h));
    }
    {
      Heavy h{"From Student Retrieve Table Distinct name of major-department",
              {}};
      std::vector<bool> seen(m.departments.size());
      for (const Model::Student& s : m.students) seen[s.major] = true;
      for (size_t d = 0; d < seen.size(); ++d) {
        if (seen[d]) h.answer.AddToGroup({Str(m.departments[d].name)});
      }
      heavy_.push_back(std::move(h));
    }
  }

  std::unique_ptr<Client> NewClient(int index, uint64_t seed) override {
    return std::make_unique<ScanClient>(this, seed * 7919 + index);
  }

 private:
  struct Heavy {
    std::string text;
    Expected answer;
  };
  // Cheap statements per heavy one: enough that a run holds well over
  // 1,000 statements while the drains keep most of the time.
  static constexpr int kCheapPerHeavy = 12;

  class ScanClient : public Client {
   public:
    ScanClient(const ScanWorkload* w, uint64_t seed) : w_(w), rng_(seed) {}

    void Next(Op* op) override {
      if (deck_pos_ == deck_.size()) Deal();
      auto [kind, stream] = deck_[deck_pos_++];
      op->kind = Op::Kind::kQuery;
      op->stream = stream;
      if (kind < static_cast<int>(w_->heavy_.size())) {
        op->text = w_->heavy_[kind].text;
        answer_ = &w_->heavy_[kind].answer;
        return;
      }
      Cheap(kind - static_cast<int>(w_->heavy_.size()), op);
      answer_ = &cheap_answer_;
    }

    std::string CheckRows(const Op&,
                          const std::vector<sim::Row>& rows) override {
      return CheckAnswer(*answer_, rows);
    }

    int64_t Round() const override { return round_; }

   private:
    static constexpr int kCheapKinds = 4;

    // A fixed multiset of (kind, streamed) cards, reshuffled every round.
    // Each kind is dealt as often materialized as streamed, so every round
    // holds the same work and the rounds' timings sample one population.
    void Deal() {
      deck_.clear();
      int heavy = static_cast<int>(w_->heavy_.size());
      for (bool stream : {false, true}) {
        for (int k = 0; k < heavy; ++k) deck_.push_back({k, stream});
        for (int i = 0; i < heavy * kCheapPerHeavy; ++i) {
          deck_.push_back({heavy + i % kCheapKinds, stream});
        }
      }
      std::shuffle(deck_.begin(), deck_.end(), rng_);
      deck_pos_ = 0;
      ++round_;
    }

    void Cheap(int kind, Op* op) {
      const Model& m = w_->m_;
      cheap_answer_ = Expected();
      auto pick = [&](size_t n) {
        return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
      };
      switch (kind) {
        case 0: {
          const Model::Student& s = m.students[pick(m.students.size())];
          op->text = "From Student Retrieve name, name of advisor, "
                     "name of major-department" + Ssn(s.ssn);
          cheap_answer_.Add({Str(s.name), AdvisorName(m, s),
                             Str(m.departments[s.major].name)});
          break;
        }
        case 1: {
          const Model::Instructor& i =
              m.instructors[pick(m.instructors.size())];
          op->text = "From Instructor Retrieve name, name of advisees" +
                     Ssn(i.ssn);
          AddPerValue(&cheap_answer_, i.advisees, Str(i.name),
                      [&](int s) { return Str(m.students[s].name); });
          break;
        }
        case 2: {
          size_t c = pick(m.courses.size());
          op->text = "From Course Retrieve title, count distinct "
                     "(transitive(prerequisites)) Where course-no = " +
                     std::to_string(m.courses[c].course_no);
          cheap_answer_.Add({Str(m.courses[c].title),
                             Int(m.PrerequisiteClosure(static_cast<int>(c)))});
          break;
        }
        default: {
          size_t d = pick(m.departments.size());
          int64_t employed = 0;
          for (const Model::Instructor& i : m.instructors) {
            employed += i.department == static_cast<int>(d);
          }
          op->text = "From Department Retrieve name, "
                     "count(instructors-employed) Where dept-nbr = " +
                     std::to_string(m.departments[d].dept_nbr);
          cheap_answer_.Add({Str(m.departments[d].name), Int(employed)});
          break;
        }
      }
    }

    const ScanWorkload* w_;
    std::mt19937_64 rng_;
    std::vector<std::pair<int, bool>> deck_;
    size_t deck_pos_ = 0;
    int64_t round_ = -1;
    const Expected* answer_ = nullptr;
    Expected cheap_answer_;
  };

  const Model& m_;
  std::vector<Heavy> heavy_;
};

// ----------------------------------------------------------------- mixed

// Values one key has taken: values[0] is the loaded one, values[k] the
// k-th write begun by the key's owner, values[acked] the newest the owner
// has seen acknowledged. A read that starts when `acked` is a and ends
// when the newest begun write is b may return any of values[a..b].
template <typename T>
struct History {
  std::vector<T> values;
  size_t acked = 0;
};

class MixedWorkload : public Workload {
 public:
  MixedWorkload(const Model& m, int clients)
      : m_(m), clients_(clients), ranges_(clients),
        salary_(m.instructors.size()), courses_(m.students.size()) {
    for (size_t i = 0; i < m.instructors.size(); ++i) {
      salary_[i].values = {m.instructors[i].salary};
    }
    for (size_t s = 0; s < m.students.size(); ++s) {
      courses_[s].values = {m.students[s].courses};
    }
  }

  std::unique_ptr<Client> NewClient(int index, uint64_t seed) override {
    return std::make_unique<MixedClient>(this, index, seed * 7919 + index);
  }

  std::vector<std::pair<std::string, Expected>> FinalChecks() override {
    std::vector<std::pair<std::string, Expected>> out;
    Expected salaries, enrolled, persons;
    for (size_t i = 0; i < m_.instructors.size(); ++i) {
      const History<double>& h = salary_[i];
      salaries.Add({Int(m_.instructors[i].ssn), Cell::Real(h.values[h.acked])});
      persons.Add({Int(m_.instructors[i].ssn)});
    }
    for (size_t s = 0; s < m_.students.size(); ++s) {
      const History<std::vector<int>>& h = courses_[s];
      AddPerValue(&enrolled, h.values[h.acked], Int(m_.students[s].ssn),
                  [&](int c) { return Int(m_.courses[c].course_no); });
      persons.Add({Int(m_.students[s].ssn)});
    }
    out.emplace_back("From Instructor Retrieve soc-sec-no, salary",
                     std::move(salaries));
    out.emplace_back(
        "From Student Retrieve soc-sec-no, course-no of courses-enrolled",
        std::move(enrolled));
    // The extent is back to the loaded one: every Insert was deleted.
    out.emplace_back("From Person Retrieve soc-sec-no", std::move(persons));
    return out;
  }

 private:
  // Enrollment sets stay within these sizes, so include and exclude are
  // always both possible for some key.
  static constexpr size_t kMinCourses = 1, kMaxCourses = 6;

  struct Range {
    std::mutex mu;  // guards the histories of the keys this range owns
  };

  class MixedClient : public Client {
   public:
    MixedClient(MixedWorkload* w, int index, uint64_t seed)
        : w_(w), index_(index), rng_(seed) {}

    void Next(Op* op) override {
      const Model& m = w_->m_;
      op->stream = false;
      if (pending_delete_ != 0) {
        op->kind = Op::Kind::kDelete;
        op->text = "Delete person" + Ssn(pending_delete_);
        pending_delete_ = 0;
        return;
      }
      auto pick = [&](size_t n) {
        return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
      };
      double u = std::uniform_real_distribution<double>(0, 1)(rng_);
      if (u < kMixedWriteShare) {
        NextWrite(op, pick);
        return;
      }
      op->kind = Op::Kind::kQuery;
      read_ = static_cast<int>(pick(4));
      key_ = read_ == 2 ? pick(m.instructors.size()) : pick(m.students.size());
      const Model::Student& s = m.students[read_ == 2 ? 0 : key_];
      switch (read_) {
        case 0:
          op->text = "From Student Retrieve name, name of advisor, "
                     "name of major-department" + Ssn(s.ssn);
          break;
        case 1:
          op->text = "From Student Retrieve name, count(courses-enrolled)" +
                     Ssn(s.ssn);
          break;
        case 2:
          op->text = "From Instructor Retrieve name, salary" +
                     Ssn(m.instructors[key_].ssn);
          break;
        default:
          op->text = "From Student Retrieve name, course-no of "
                     "courses-enrolled" + Ssn(s.ssn);
          break;
      }
    }

    bool Owes() const override { return pending_delete_ != 0; }

    void Before(const Op& op) override {
      if (op.kind == Op::Kind::kQuery) {
        if (read_ == 0) return;  // advisor and major never change
        std::lock_guard<std::mutex> l(Owner(key_).mu);
        oldest_ = read_ == 2 ? w_->salary_[key_].acked
                             : w_->courses_[key_].acked;
        return;
      }
      if (op.kind == Op::Kind::kModifyDva) {
        std::lock_guard<std::mutex> l(Owner(key_).mu);
        w_->salary_[key_].values.push_back(new_salary_);
      } else if (op.kind == Op::Kind::kModifyEva) {
        std::lock_guard<std::mutex> l(Owner(key_).mu);
        w_->courses_[key_].values.push_back(new_courses_);
      }
    }

    std::string CheckRows(const Op&,
                          const std::vector<sim::Row>& rows) override {
      const Model& m = w_->m_;
      if (read_ == 0) {
        const Model::Student& s = m.students[key_];
        Expected e;
        e.Add({Str(s.name), AdvisorName(m, s),
               Str(m.departments[s.major].name)});
        return CheckAnswer(e, rows);
      }
      std::vector<Expected> candidates;
      std::lock_guard<std::mutex> l(Owner(key_).mu);
      if (read_ == 2) {
        const Model::Instructor& i = m.instructors[key_];
        const History<double>& h = w_->salary_[key_];
        for (size_t v = oldest_; v < h.values.size(); ++v) {
          candidates.emplace_back();
          candidates.back().Add({Str(i.name), Cell::Real(h.values[v])});
        }
        return CheckAnswerAny(candidates, rows);
      }
      const Model::Student& s = m.students[key_];
      const History<std::vector<int>>& h = w_->courses_[key_];
      for (size_t v = oldest_; v < h.values.size(); ++v) {
        candidates.emplace_back();
        if (read_ == 1) {
          candidates.back().Add({Str(s.name), Int(h.values[v].size())});
        } else {
          AddPerValue(&candidates.back(), h.values[v], Str(s.name), [&](int c) {
            return Int(m.courses[c].course_no);
          });
        }
      }
      return CheckAnswerAny(candidates, rows);
    }

    std::string CheckUpdate(const Op& op, int affected) override {
      std::string why = Client::CheckUpdate(op, affected);
      if (!why.empty()) return why;
      if (op.kind == Op::Kind::kModifyDva) {
        std::lock_guard<std::mutex> l(Owner(key_).mu);
        w_->salary_[key_].acked = w_->salary_[key_].values.size() - 1;
      } else if (op.kind == Op::Kind::kModifyEva) {
        std::lock_guard<std::mutex> l(Owner(key_).mu);
        w_->courses_[key_].acked = w_->courses_[key_].values.size() - 1;
      }
      return "";
    }

   private:
    Range& Owner(size_t key) { return w_->ranges_[key % w_->clients_]; }

    // A key this client owns: index ≡ client (mod clients).
    template <typename Pick>
    size_t OwnKey(size_t n, Pick& pick) {
      size_t clients = static_cast<size_t>(w_->clients_);
      size_t owned = (n - index_ + clients - 1) / clients;
      return index_ + pick(owned) * clients;
    }

    template <typename Pick>
    void NextWrite(Op* op, Pick& pick) {
      const Model& m = w_->m_;
      // DVA modify, EVA include/exclude, Insert+Delete pair: 9 : 9 : 2.
      // An Insert holds its X locks through a scan of all of Course
      // (~4 ms against ~0.6 ms for a modify), so pairs are the rarest.
      switch (std::discrete_distribution<int>{9, 9, 2}(rng_)) {
        case 0: {
          key_ = OwnKey(m.instructors.size(), pick);
          new_salary_ = 30000 + static_cast<double>(pick(50000));
          op->kind = Op::Kind::kModifyDva;
          op->text = "Modify instructor (salary := " +
                     std::to_string(static_cast<int64_t>(new_salary_)) + ")" +
                     Ssn(m.instructors[key_].ssn);
          return;
        }
        case 1: {
          key_ = OwnKey(m.students.size(), pick);
          {
            // Only the owner writes the key, so its newest value is acked.
            std::lock_guard<std::mutex> l(Owner(key_).mu);
            new_courses_ = w_->courses_[key_].values.back();
          }
          bool include = new_courses_.size() <= kMinCourses ||
                         (new_courses_.size() < kMaxCourses && pick(2) == 0);
          int course;
          if (include) {
            do {
              course = static_cast<int>(pick(m.courses.size()));
            } while (std::find(new_courses_.begin(), new_courses_.end(),
                               course) != new_courses_.end());
            new_courses_.push_back(course);
          } else {
            size_t at = pick(new_courses_.size());
            course = new_courses_[at];
            new_courses_.erase(new_courses_.begin() + at);
          }
          op->kind = Op::Kind::kModifyEva;
          std::string no = std::to_string(m.courses[course].course_no);
          op->text = include
              ? "Modify student (courses-enrolled := include course with "
                "(course-no = " + no + "))"
              : "Modify student (courses-enrolled := exclude "
                "courses-enrolled with (course-no = " + no + "))";
          op->text += Ssn(m.students[key_].ssn);
          return;
        }
        default: {
          // An Insert whose delete follows at once keeps extents constant.
          int64_t ssn = 700000000 + int64_t{index_} * 10000000 + inserted_++;
          size_t a = pick(m.courses.size());
          size_t b = (a + 1 + pick(m.courses.size() - 1)) % m.courses.size();
          op->kind = Op::Kind::kInsert;
          op->text =
              "Insert student (name := \"Temp-" + std::to_string(ssn) +
              "\", soc-sec-no := " + std::to_string(ssn) +
              ", student-nbr := " + std::to_string(60001 + index_) +
              ", major-department := department with (dept-nbr = " +
              std::to_string(
                  m.departments[pick(m.departments.size())].dept_nbr) +
              "), courses-enrolled := course with (course-no = " +
              std::to_string(m.courses[a].course_no) + " or course-no = " +
              std::to_string(m.courses[b].course_no) + "))";
          pending_delete_ = ssn;
          return;
        }
      }
    }

    MixedWorkload* w_;
    int index_;
    std::mt19937_64 rng_;
    int read_ = 0;       // template of the current read
    size_t key_ = 0;     // instructor or student the current op touches
    size_t oldest_ = 0;  // oldest version the current read may return
    double new_salary_ = 0;
    std::vector<int> new_courses_;
    int64_t pending_delete_ = 0;
    int64_t inserted_ = 0;
  };

  const Model& m_;
  int clients_;
  std::vector<Range> ranges_;
  std::vector<History<double>> salary_;
  std::vector<History<std::vector<int>>> courses_;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec,
                                       const Model& model, uint64_t seed) {
  std::string name = spec.name;
  if (name == "lookup") return std::make_unique<LookupWorkload>(model, seed);
  if (name == "scan") return std::make_unique<ScanWorkload>(model);
  return std::make_unique<MixedWorkload>(model, spec.clients);
}

}  // namespace simbench
