#include "population.h"

#include <random>
#include <utility>

#include "university_fixture.h"

namespace simbench {

Model Model::Generate(const PopulationSize& size, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Model m;
  for (int i = 0; i < size.departments; ++i) {
    m.departments.push_back({100 + i, "Dept-" + std::to_string(i)});
  }
  for (int i = 0; i < size.courses; ++i) {
    Course c;
    c.course_no = 1 + i;
    c.title = "Course-" + std::to_string(i);
    c.credits = 3 + i % 4;
    if (i % kPrerequisiteChain != 0) c.prerequisite = i - 1;
    m.courses.push_back(std::move(c));
  }
  for (int i = 0; i < size.instructors; ++i) {
    Instructor t;
    t.ssn = 900000000 + i;
    t.name = "Instructor-" + std::to_string(i);
    t.employee_nbr = 1001 + i;
    t.salary = 40000 + (i % 10) * 3000;
    t.department = i % size.departments;
    m.instructors.push_back(std::move(t));
  }
  std::uniform_int_distribution<int> pick_instructor(0, size.instructors - 1);
  std::uniform_int_distribution<int> pick_course(0, size.courses - 1);
  for (int i = 0; i < size.students; ++i) {
    Student s;
    s.ssn = 100000000 + i;
    s.name = "Student-" + std::to_string(i);
    s.student_nbr = 1001 + i % 38999;
    s.major = i % size.departments;
    // The advisor is drawn at random; a full instructor (MAX 10) leaves
    // the student without one.
    int advisor = pick_instructor(rng);
    if (static_cast<int>(m.instructors[advisor].advisees.size()) <
        kMaxAdvisees) {
      s.advisor = advisor;
      m.instructors[advisor].advisees.push_back(i);
    }
    for (int e = 0; e < kEnrollmentDraws; ++e) {
      int c = pick_course(rng);
      s.enrollment_draws.push_back(c);
      bool seen = false;
      for (int have : s.courses) seen = seen || have == c;
      if (!seen) s.courses.push_back(c);  // DISTINCT drops repeats
    }
    m.students.push_back(std::move(s));
  }
  return m;
}

std::vector<std::vector<int>> Model::EnrolledByCourse() const {
  std::vector<std::vector<int>> out(courses.size());
  for (size_t s = 0; s < students.size(); ++s) {
    for (int c : students[s].courses) out[c].push_back(static_cast<int>(s));
  }
  return out;
}

int Model::PrerequisiteClosure(int course) const {
  int n = 0;
  for (int c = courses[course].prerequisite; c >= 0;
       c = courses[c].prerequisite) {
    ++n;
  }
  return n;
}

sim::Result<std::unique_ptr<sim::Database>> OpenAndLoad(
    const Model& model, const sim::DatabaseOptions& options) {
  using sim::Value;
  // The schema the repository's tests and benches share, without its data.
  SIM_ASSIGN_OR_RETURN(std::unique_ptr<sim::Database> db,
                       sim::testing::OpenUniversity(options,
                                                    /*with_data=*/false));
  SIM_ASSIGN_OR_RETURN(sim::LucMapper * mapper, db->mapper());

  std::vector<sim::SurrogateId> dept, course, instr;
  for (const Model::Department& d : model.departments) {
    SIM_ASSIGN_OR_RETURN(sim::SurrogateId s,
                         mapper->CreateEntity("department", nullptr));
    SIM_RETURN_IF_ERROR(mapper->SetField(s, "department", "dept-nbr",
                                         Value::Int(d.dept_nbr), nullptr));
    SIM_RETURN_IF_ERROR(
        mapper->SetField(s, "department", "name", Value::Str(d.name), nullptr));
    dept.push_back(s);
  }
  for (const Model::Course& c : model.courses) {
    SIM_ASSIGN_OR_RETURN(sim::SurrogateId s,
                         mapper->CreateEntity("course", nullptr));
    SIM_RETURN_IF_ERROR(mapper->SetField(s, "course", "course-no",
                                         Value::Int(c.course_no), nullptr));
    SIM_RETURN_IF_ERROR(
        mapper->SetField(s, "course", "title", Value::Str(c.title), nullptr));
    SIM_RETURN_IF_ERROR(mapper->SetField(s, "course", "credits",
                                         Value::Int(c.credits), nullptr));
    if (c.prerequisite >= 0) {
      SIM_RETURN_IF_ERROR(mapper->AddEvaPair("course", "prerequisites", s,
                                             course[c.prerequisite], nullptr));
    }
    course.push_back(s);
  }
  for (const Model::Instructor& t : model.instructors) {
    SIM_ASSIGN_OR_RETURN(sim::SurrogateId s,
                         mapper->CreateEntity("instructor", nullptr));
    SIM_RETURN_IF_ERROR(mapper->SetField(s, "person", "soc-sec-no",
                                         Value::Int(t.ssn), nullptr));
    SIM_RETURN_IF_ERROR(
        mapper->SetField(s, "person", "name", Value::Str(t.name), nullptr));
    SIM_RETURN_IF_ERROR(mapper->SetField(s, "instructor", "employee-nbr",
                                         Value::Int(t.employee_nbr), nullptr));
    SIM_RETURN_IF_ERROR(mapper->SetField(s, "instructor", "salary",
                                         Value::Real(t.salary), nullptr));
    SIM_RETURN_IF_ERROR(mapper->AddEvaPair("instructor", "assigned-department",
                                           s, dept[t.department], nullptr));
    instr.push_back(s);
  }
  for (const Model::Student& st : model.students) {
    SIM_ASSIGN_OR_RETURN(sim::SurrogateId s,
                         mapper->CreateEntity("student", nullptr));
    SIM_RETURN_IF_ERROR(mapper->SetField(s, "person", "soc-sec-no",
                                         Value::Int(st.ssn), nullptr));
    SIM_RETURN_IF_ERROR(
        mapper->SetField(s, "person", "name", Value::Str(st.name), nullptr));
    SIM_RETURN_IF_ERROR(mapper->SetField(s, "student", "student-nbr",
                                         Value::Int(st.student_nbr), nullptr));
    if (st.advisor >= 0) {
      SIM_RETURN_IF_ERROR(mapper->AddEvaPair("student", "advisor", s,
                                             instr[st.advisor], nullptr));
    }
    SIM_RETURN_IF_ERROR(mapper->AddEvaPair("student", "major-department", s,
                                           dept[st.major], nullptr));
    // Repeats included: the engine's DISTINCT rule must drop them.
    for (int c : st.enrollment_draws) {
      SIM_RETURN_IF_ERROR(mapper->AddEvaPair("student", "courses-enrolled", s,
                                             course[c], nullptr));
    }
  }
  if (!options.file_path.empty()) {
    // Rewrites a name with its own value: the model is unchanged, and the
    // commit makes the whole load durable and checkpointed.
    const Model::Department& d = model.departments.front();
    SIM_ASSIGN_OR_RETURN(
        int n, db->ExecuteUpdate("Modify department (name := \"" + d.name +
                                 "\") Where dept-nbr = " +
                                 std::to_string(d.dept_nbr)));
    if (n != 1) return sim::Status::Internal("setup commit touched no entity");
  }
  return db;
}

}  // namespace simbench
