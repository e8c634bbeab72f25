#ifndef SIMBENCH_POPULATION_H_
#define SIMBENCH_POPULATION_H_

// The benchmark's UNIVERSITY population (paper §7 schema) and the
// generator's own model of it. Every answer the benchmark checks is derived
// from the model, never read back from the engine.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"

namespace simbench {

struct PopulationSize {
  int departments = 0;
  int instructors = 0;
  int courses = 0;
  int students = 0;
};

// Entities are numbered in creation order (departments, courses,
// instructors, students), which is surrogate order and therefore the
// perspective order of every extent.
struct Model {
  // Schema rules the generator must honour the way the engine does.
  static constexpr int kMaxAdvisees = 10;        // advisees: mv (max 10)
  static constexpr int kEnrollmentDraws = 4;     // per student, with repeats
  static constexpr int kPrerequisiteChain = 5;   // course i needs i-1 inside

  struct Department {
    int64_t dept_nbr = 0;
    std::string name;
  };
  struct Course {
    int64_t course_no = 0;
    std::string title;
    int64_t credits = 0;
    int prerequisite = -1;  // direct prerequisite, -1 = none
  };
  struct Instructor {
    int64_t ssn = 0;
    std::string name;
    int64_t employee_nbr = 0;
    double salary = 0;
    int department = 0;
    std::vector<int> advisees;  // students, in assignment order
  };
  struct Student {
    int64_t ssn = 0;
    std::string name;
    int64_t student_nbr = 0;
    int advisor = -1;  // -1: the drawn advisor was full (MAX 10)
    int major = 0;
    // Raw draws as handed to the engine, repeats included; `courses` is
    // what a DISTINCT EVA keeps of them.
    std::vector<int> enrollment_draws;
    std::vector<int> courses;
  };

  std::vector<Department> departments;
  std::vector<Course> courses;
  std::vector<Instructor> instructors;
  std::vector<Student> students;

  // Deterministic in (size, seed).
  static Model Generate(const PopulationSize& size, uint64_t seed);

  // Students enrolled in each course, in student order.
  std::vector<std::vector<int>> EnrolledByCourse() const;
  // Number of courses reachable through prerequisites (transitive, distinct).
  int PrerequisiteClosure(int course) const;
  int64_t live_entities() const {
    return static_cast<int64_t>(departments.size() + courses.size() +
                                instructors.size() + students.size());
  }
};

// Opens a database with the UNIVERSITY schema and loads `model` through the
// LUC mapper API (the bulk path; DML loading is ~30x slower). A file-backed
// database then runs one committed statement, so the load is durable and
// checkpointed before any timed work starts.
sim::Result<std::unique_ptr<sim::Database>> OpenAndLoad(
    const Model& model, const sim::DatabaseOptions& options);

}  // namespace simbench

#endif  // SIMBENCH_POPULATION_H_
