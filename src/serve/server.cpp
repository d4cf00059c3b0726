#include "vcomp/serve/server.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "vcomp/core/experiment.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::serve {

namespace {

std::string event_error(const std::string& id, const std::string& message) {
  std::string out = "{\"event\":\"error\",\"id\":";
  append_json_string(out, id);
  out += ",\"message\":";
  append_json_string(out, message);
  out += '}';
  return out;
}

}  // namespace

Server::Server(const ServeOptions& options)
    : registry_(options.registry_budget),
      max_active_(options.max_active_jobs),
      progress_every_(options.progress_every) {
  VCOMP_REQUIRE(max_active_ >= 1, "max_active_jobs must be at least 1");
}

Server::~Server() { drain(); }

void Server::emit(const Sink& sink, const std::string& line) {
  const std::lock_guard<std::mutex> lk(emit_m_);
  sink(line);
}

void Server::rebalance_locked() {
  // Fair share of the pool across slotted jobs.  Caps only bound how many
  // workers a parallel loop recruits — never any computed value — so the
  // retune points need no synchronisation with the jobs' loops.
  if (running_.empty()) return;
  const std::size_t share =
      std::max<std::size_t>(1, util::parallelism() / running_.size());
  for (Job* j : running_) j->cap.store(share, std::memory_order_relaxed);
}

bool Server::handle_line(const std::string& line, const Sink& sink) {
  if (line.empty() ||
      line.find_first_not_of(" \t\r") == std::string::npos)
    return true;  // blank keep-alive
  std::string error;
  const std::optional<Request> req = parse_request(line, error);
  if (!req) {
    emit(sink, event_error("", error));
    return true;
  }
  switch (req->op) {
    case Request::Op::Ping:
      emit(sink, "{\"event\":\"pong\"}");
      return true;
    case Request::Op::Shutdown:
      emit(sink, "{\"event\":\"bye\"}");
      return false;
    case Request::Op::Status: {
      std::string out = "{\"event\":\"status\"";
      {
        const std::lock_guard<std::mutex> lk(jobs_m_);
        out += ",\"active\":" + std::to_string(running_.size());
        out += ",\"queued\":" + std::to_string(queued_);
        out += ",\"completed\":" + std::to_string(completed_);
        out += ",\"max_active\":" + std::to_string(max_active_);
      }
      const ArtifactRegistry::Stats st = registry_.stats();
      out += ",\"cache\":{\"size\":" + std::to_string(registry_.size());
      out += ",\"hits\":" + std::to_string(st.hits);
      out += ",\"misses\":" + std::to_string(st.misses);
      out += ",\"evictions\":" + std::to_string(st.evictions);
      out += "}}";
      emit(sink, out);
      return true;
    }
    case Request::Op::Submit:
      break;
  }

  auto job = std::make_unique<Job>();
  job->spec = req->job;
  job->sink = sink;
  if (job->spec.progress_every == 0) job->spec.progress_every = progress_every_;
  Job* j = job.get();
  {
    const std::lock_guard<std::mutex> lk(jobs_m_);
    ++queued_;
    jobs_.push_back(std::move(job));
  }
  {
    std::string out = "{\"event\":\"accepted\",\"id\":";
    append_json_string(out, j->spec.id);
    out += '}';
    emit(sink, out);
  }
  j->runner = std::thread([this, j] { run_job(*j); });
  return true;
}

void Server::run_job(Job& job) {
  // Admission: wait for one of the max_active slots, then join the
  // fair-share cap rebalance set.
  {
    std::unique_lock<std::mutex> lk(jobs_m_);
    slot_cv_.wait(lk, [this] { return running_.size() < max_active_; });
    --queued_;
    running_.push_back(&job);
    rebalance_locked();
  }

  std::string result_line;
  try {
    // Artifact resolution runs under the registry's ambient scope — the
    // job's counter window opens strictly around run() below.
    const ArtifactRegistry::LabRef lab =
        registry_.lab_for_spec(job.spec.circuit, job.spec.full_scale);

    core::StitchOptions opts = job.spec.options;
    if (job.spec.info > 0.0 &&
        !core::apply_info_ratio(opts, lab->netlist(), job.spec.info))
      throw std::runtime_error("info point unattainable for this circuit");

    if (job.spec.progress_every > 0) {
      const std::size_t every = job.spec.progress_every;
      const std::string id = job.spec.id;
      const Sink sink = job.sink;
      opts.on_cycle = [this, every, id, sink](std::size_t cycle,
                                              const core::CycleStats& st) {
        if (cycle % every != 0) return;
        std::string out = "{\"event\":\"progress\",\"id\":";
        append_json_string(out, id);
        out += ",\"cycle\":" + std::to_string(cycle);
        out += ",\"caught_shift\":" + std::to_string(st.caught_at_shift);
        out += ",\"caught_po\":" + std::to_string(st.caught_at_po);
        out += ",\"hidden\":" + std::to_string(st.hidden_after);
        out += '}';
        emit(sink, out);
      };
    }

    // The job's cap rides into the counter window (scoped_counters keeps
    // the caller's cap under its fresh token) and onto every pool worker
    // run() recruits.
    core::StitchResult result;
    const util::ScopedTaskContext capped(util::TaskContext{0, &job.cap});
    const obs::CounterSet counters =
        obs::scoped_counters([&] { result = lab->run(opts); });

    const std::string label =
        circuit_label(job.spec.circuit, job.spec.full_scale);
    std::string out = "{\"event\":\"result\",\"id\":";
    append_json_string(out, job.spec.id);
    out += ",\"row\":";
    out += result_row(label, result, counters);
    out += '}';
    result_line = std::move(out);
  } catch (const std::exception& e) {
    result_line = event_error(job.spec.id, e.what());
  }

  {
    const std::lock_guard<std::mutex> lk(jobs_m_);
    running_.erase(std::find(running_.begin(), running_.end(), &job));
    ++completed_;
    rebalance_locked();
  }
  slot_cv_.notify_all();
  // Emit last: once the final event is on the wire the job is fully
  // retired (tests key off result/error lines to know a job is done).
  emit(job.sink, result_line);
}

void Server::drain() {
  std::vector<std::unique_ptr<Job>> done;
  for (;;) {
    {
      const std::lock_guard<std::mutex> lk(jobs_m_);
      done.swap(jobs_);
    }
    if (done.empty()) return;
    for (auto& j : done)
      if (j->runner.joinable()) j->runner.join();
    done.clear();
  }
}

}  // namespace vcomp::serve
