#ifndef SIMBENCH_WORKLOADS_H_
#define SIMBENCH_WORKLOADS_H_

// The three workloads: what each client sends, and how each answer is
// checked against the generator's model.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "oracle.h"
#include "population.h"

namespace simbench {

// One statement as a client sends it.
struct Op {
  enum class Kind { kQuery, kModifyDva, kModifyEva, kInsert, kDelete };
  Kind kind = Kind::kQuery;
  std::string text;
  bool stream = false;  // a query drained through a Cursor, not materialized
};

// One closed-loop client: its next statement, and the check of its answer.
class Client {
 public:
  virtual ~Client() = default;
  virtual void Next(Op* op) = 0;
  // Runs just before `op` is sent: a writer publishes its in-flight value,
  // a reader notes the oldest value it may legally see.
  virtual void Before(const Op& op) { (void)op; }
  // "" when `rows` is the right answer to the query `op`.
  virtual std::string CheckRows(const Op& op,
                                const std::vector<sim::Row>& rows) = 0;
  // "" when the update `op` did what the model says; it also records the
  // new state as acknowledged.
  virtual std::string CheckUpdate(const Op& op, int affected) {
    (void)op;
    return affected == 1 ? "" : "expected 1 entity affected, got " +
                                    std::to_string(affected);
  }
  // True while the client owes a statement that restores the model's
  // extent (the Delete of an Insert+Delete pair); it runs past the deadline.
  virtual bool Owes() const { return false; }
  // The round of the statement last returned by Next, for a client that
  // repeats a fixed schedule of unequal statements; -1 for one whose
  // statements are alike. Rounds, not seconds, then slice its timings.
  virtual int64_t Round() const { return -1; }
};

struct WorkloadSpec {
  const char* name;
  int clients;
  PopulationSize size;
  bool file_backed;
  bool group_commit;
  bool writes;  // some clients update
  int setups;   // set-ups timed for setup_s, a fixed count per workload
};

// nullptr when `name` is no workload.
const WorkloadSpec* FindWorkload(const std::string& name);

class Workload {
 public:
  virtual ~Workload() = default;
  // Client `index` of the workload; the same (index, seed) sends the same
  // statements.
  virtual std::unique_ptr<Client> NewClient(int index, uint64_t seed) = 0;
  // Full retrievals to run after the timed phase, with the model's answer.
  virtual std::vector<std::pair<std::string, Expected>> FinalChecks() {
    return {};
  }
};

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec,
                                       const Model& model, uint64_t seed);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_H_
