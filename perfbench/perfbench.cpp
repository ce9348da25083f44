// perfbench: one workload of the end-to-end benchmark (see run.py).
//
// Usage: perfbench --workload NAME --input FILE --check-input FILE
//                  --seconds S --trace 0|1 [--spans FILE]
//
// run.py generates both input files from the workload seed; this program
// never sees the seed.  An input holds shared settings and several units
// (independent scenarios: a BSP round, a spawn stream, a cluster run).  The
// program executes the units round-robin until the time budget is spent,
// checks that every repeat of a unit reproduced its simulated counters bit
// for bit, runs the first unit of --check-input once to check that another
// input moves at least one of them, and prints one JSON report as the last
// line of stdout.  Simulated metrics are summed over the units' first
// executions; host metrics are medians over executions.
//
// The program drives only public entry points: System and its spawn calls,
// GlobalScheduler placement, bsp::run_bsp, ClusterController, the auditors,
// the telemetry exporters and parsers, and the EDF replay oracle.  With
// --trace 1 it also records a span around each of those calls and derives
// per-layer host self time from them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "audit/replay.hpp"
#include "bench/common.hpp"
#include "bsp/bsp.hpp"
#include "cluster/controller.hpp"
#include "rt/system.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics_diff.hpp"

namespace {

using namespace hrt;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans (traced executions only)

struct Span {
  const char* name;     // "<layer>.<call>"
  std::uint64_t id;     // request / round / tick the call belongs to
  std::int32_t parent;  // index into spans, -1 for a root
  double start_ns;
  double end_ns;
};

class Tracer {
 public:
  bool on = false;
  std::uint64_t id = 0;
  std::vector<Span> spans;

  std::int32_t begin(const char* name) {
    if (!on) return -1;
    spans.push_back({name, id, open_, now_ns(), 0.0});
    open_ = static_cast<std::int32_t>(spans.size() - 1);
    return open_;
  }
  void end(std::int32_t i) {
    if (i < 0) return;
    spans[static_cast<std::size_t>(i)].end_ns = now_ns();
    open_ = spans[static_cast<std::size_t>(i)].parent;
  }

 private:
  double now_ns() const { return ns_between(t0_, Clock::now()); }
  Clock::time_point t0_ = Clock::now();
  std::int32_t open_ = -1;
};

Tracer g_trace;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : i_(g_trace.begin(name)) {}
  ~SpanScope() { g_trace.end(i_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t i_;
};

/// Runs fn inside a span and returns its host duration in ns.
template <typename Fn>
double timed(const char* span, Fn&& fn) {
  SpanScope s(span);
  const auto t0 = Clock::now();
  fn();
  return ns_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Inputs: whitespace-separated "key value..." lines written by run.py.  A
// "unit" line starts a unit; lines before the first one are shared.

using Line = std::vector<std::string>;

class Input {
 public:
  static std::vector<Input> read_units(const std::string& path) {
    std::ifstream f(path);
    if (!f) throw std::runtime_error("cannot read input " + path);
    std::vector<Line> shared;
    std::vector<Input> units;
    std::string text;
    while (std::getline(f, text)) {
      std::istringstream ss(text);
      Line l;
      std::string t;
      while (ss >> t) l.push_back(t);
      if (l.empty()) continue;
      if (l[0] == "unit") {
        units.emplace_back();
        units.back().lines_ = shared;
      } else if (units.empty()) {
        shared.push_back(std::move(l));
      } else {
        units.back().lines_.push_back(std::move(l));
      }
    }
    if (units.empty()) throw std::runtime_error("input has no unit: " + path);
    return units;
  }

  [[nodiscard]] std::vector<const Line*> all(const std::string& key) const {
    std::vector<const Line*> out;
    for (const Line& l : lines_) {
      if (l[0] == key) out.push_back(&l);
    }
    return out;
  }
  [[nodiscard]] const Line& one(const std::string& key) const {
    for (const Line& l : lines_) {
      if (l[0] == key) return l;
    }
    throw std::runtime_error("input lacks key " + key);
  }
  [[nodiscard]] std::int64_t num(const std::string& key,
                                 std::size_t field = 1) const {
    return to_i(one(key), field);
  }
  static std::int64_t to_i(const Line& l, std::size_t field) {
    if (field >= l.size()) throw std::runtime_error("short line " + l[0]);
    return std::stoll(l[field]);
  }

 private:
  std::vector<Line> lines_;
};

// ---------------------------------------------------------------------------
// Per-execution results.

/// Simulated counters: deterministic for a given unit, compared bit for bit
/// and summed over units ("_max" keys take the maximum instead).
using Raw = std::map<std::string, double>;

struct Host {
  double setup_s = 0;  // System / ClusterController construct + boot
  double timed_s = 0;  // host seconds of the timed phase
  double sim_ms = 0;   // simulated ms advanced in the timed phase
  double events = 0;   // engine events executed in the timed phase
  std::vector<double> spawn_us;  // spawn_batch / spawn_split call latency
  std::vector<double> place_ns;  // placement decision latency
  std::vector<double> tick_us;   // cluster control tick (nodes pre-advanced)
  std::vector<double> ctor_ms;   // System constructor
  std::vector<double> boot_ms;   // System::boot
  double export_ms = 0;          // telemetry exports + parse-back
  double replay_ms = 0;          // EDF replay oracle
};

struct Episode {
  Raw raw;
  Host host;
  std::uint64_t attempted = 0;  // requests, BSP runs, jobs, gates
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;  // a failed correctness gate
  std::vector<std::string> errors;         // exceptions, failed operations
  std::vector<std::string> overdue;        // overdue RT threads
  std::uint64_t requests_due = 0;          // open-loop requests issued
  double lateness_ns = 0;                  // generator lateness (max)

  void gate(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      gate_failures.push_back(what);
    }
  }
  void add_max(const std::string& key, double v) {
    raw[key] = std::max(raw[key], v);
  }
};

/// Adds a System's public counters to `r`.
void add_system(System& sys, Raw& r) {
  const double ghz = sys.machine().spec().freq.ghz();
  const std::uint32_t n = sys.kernel().num_cpus();
  const double now = static_cast<double>(sys.engine().now());
  r["cpu_ns"] += now * n;
  r["machine_ns"] += now;
  const auto smi = sys.machine().smi().stats();
  r["smi_stolen_ns"] += static_cast<double>(smi.total_stolen_ns);
  r["smi_stolen_cpu_ns"] += static_cast<double>(smi.total_stolen_ns) * n;
  auto total = [](const sim::RunningStats& s) {
    return s.mean() * static_cast<double>(s.count());
  };
  for (std::uint32_t c = 0; c < n; ++c) {
    const auto& oh = sys.kernel().executor(c).overheads();
    r["irq_ns"] += total(oh.irq) / ghz;
    r["pass_ns"] += total(oh.pass) / ghz;
    r["switch_ns"] += total(oh.swtch) / ghz;
    r["other_ns"] += total(oh.other) / ghz;
    r["irq_n"] += static_cast<double>(oh.irq.count());
    r["pass_n"] += static_cast<double>(oh.pass.count());
    r["switch_n"] += static_cast<double>(oh.swtch.count());
    r["nautilus.passes"] += static_cast<double>(oh.passes);
    r["nautilus.switches"] += static_cast<double>(oh.switches);
    const auto& st = sys.sched(c).stats();
    r["rt.timer_passes"] += static_cast<double>(st.timer_passes);
    r["rt.kick_passes"] += static_cast<double>(st.kick_passes);
    r["rt.zero_delay_arms"] += static_cast<double>(st.zero_delay_arms);
    r["rt.admissions_ok"] += static_cast<double>(st.admissions_ok);
    r["rt.admissions_rejected"] += static_cast<double>(st.admissions_rejected);
    r["fast_admits"] += static_cast<double>(st.fast_admits);
    r["fast_fallbacks"] += static_cast<double>(st.fast_fallbacks);
    r["rt.batch_reserves"] += static_cast<double>(st.batch_reserves);
    r["est_stolen_ns"] +=
        static_cast<double>(sys.sched(c).missing_time().stolen_total_ns());
  }
  const auto& gs = sys.placement().stats();
  r["global.fallback_placements"] +=
      static_cast<double>(gs.fallback_placements);
  r["global.admit_give_ups"] += static_cast<double>(gs.admit_give_ups);
  r["global.split_plans"] += static_cast<double>(gs.split_plans);
  const auto& rb = sys.placement().rebalancer().stats();
  r["global.rebalance_moves"] +=
      static_cast<double>(rb.migrations_proposed + rb.relocations);
  r["make_room_calls"] += static_cast<double>(rb.make_room_calls);
  r["make_room_migrations"] += static_cast<double>(rb.make_room_migrations);
  const auto& rs = sys.resilience().stats();
  r["resilience.storms_entered"] += static_cast<double>(rs.storms_entered);
  r["resilience.sheds"] += static_cast<double>(rs.sheds);
  r["resilience.restores"] += static_cast<double>(rs.restores);
  if (sys.telemetry().enabled()) {
    r["telemetry.records_written"] +=
        static_cast<double>(sys.telemetry().recorder().written());
    r["telemetry.records_dropped"] +=
        static_cast<double>(sys.telemetry().recorder().dropped());
  }
  r["audit.violations"] +=
      static_cast<double>(sys.auditor().total_violations());
  r["sim.events"] += static_cast<double>(sys.engine().events_executed());
}

/// Simulated metrics derived from summed raw counters; every ratio's base
/// is a raw counter reported next to it.
Raw derive(const Raw& r) {
  auto get = [&](const char* k) {
    auto it = r.find(k);
    return it == r.end() ? 0.0 : it->second;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  Raw m = r;
  m["sched_overhead_frac"] = ratio(
      get("irq_ns") + get("pass_ns") + get("switch_ns") + get("other_ns"),
      get("cpu_ns"));
  m["nautilus.irq_ns_mean"] = ratio(get("irq_ns"), get("irq_n"));
  m["nautilus.pass_ns_mean"] = ratio(get("pass_ns"), get("pass_n"));
  m["nautilus.switch_ns_mean"] = ratio(get("switch_ns"), get("switch_n"));
  m["rt.fast_hit_ratio"] = ratio(get("fast_admits"),
                                 get("fast_admits") + get("fast_fallbacks"));
  m["global.make_room_ratio"] =
      ratio(get("make_room_migrations"), get("make_room_calls"));
  m["resilience.estimate_ratio"] =
      ratio(get("est_stolen_ns"), get("smi_stolen_cpu_ns"));
  m["hw.smi_stolen_frac"] = ratio(get("smi_stolen_ns"), get("machine_ns"));
  m["admit_ratio"] = ratio(get("rt_admitted"), get("rt_requested"));
  m["miss_rate"] =
      ratio(get("misses") + get("rt.overdue_arrivals"), get("arrivals"));
  m["group.admit_ratio"] = ratio(get("groups_ok"), get("groups"));
  m["bsp_makespan_ms"] = get("makespan_ns") / 1e6;
  m["availability"] = ratio(get("rt_delivered_ns"), get("rt_expected_ns"));
  m["failover_ms"] = get("replace_ns_max") / 1e6;
  m["cluster.detect_us"] = get("detect_ns_max") / 1e3;
  m["bsp.max_write_skew"] = get("write_skew_max");
  return m;
}

void add_raw(Raw& into, const Raw& r) {
  for (const auto& [k, v] : r) {
    const bool is_max =
        k.size() > 4 && k.compare(k.size() - 4, 4, "_max") == 0;
    into[k] = is_max ? std::max(into[k], v) : into[k] + v;
  }
}

/// Admitted RT threads whose open arrival's deadline lies more than two
/// periods in the past: the scheduler has not recorded that miss, and a
/// working scheduler closes such an arrival long before.  Lists each one in
/// ep.overdue, adds their count to rt.overdue_arrivals and returns them.
std::vector<const nk::Thread*> scan_overdue(System& sys, Episode& ep) {
  SpanScope span("bench.overdue_scan");
  std::vector<const nk::Thread*> out;
  for (nk::Thread* t : sys.kernel().live_threads()) {
    if (t->is_idle || t->state == nk::Thread::State::kExited) continue;
    if (!t->is_realtime() || !t->rt.arrival_open) continue;
    const sim::Nanos period = t->constraints.period;
    if (period <= 0) continue;
    const sim::Nanos now = sys.kernel().executor(t->cpu).wall_now();
    if (now - t->rt.deadline > 2 * period) {
      out.push_back(t);
      ep.overdue.push_back(t->name + "@cpu" + std::to_string(t->cpu) +
                           " overdue_ns=" +
                           std::to_string(now - t->rt.deadline));
    }
  }
  ep.raw["rt.overdue_arrivals"] += static_cast<double>(out.size());
  return out;
}

/// Exports both telemetry formats of `tel` and parses them back with the
/// bundled parsers.  Returns host ms; a parse failure fails a gate.
double export_and_parse(const telemetry::Telemetry& tel, sim::Nanos now,
                        const std::string& what, Episode& ep) {
  bool metrics_ok = false;
  bool chrome_ok = false;
  const double ns = timed("telemetry.export", [&] {
    std::ostringstream m;
    telemetry::write_metrics_json(m, tel, now);
    metrics_ok = telemetry::parse_metrics_snapshot(m.str()).ok;
    std::ostringstream c;
    telemetry::write_chrome_trace(c, tel);
    chrome_ok = telemetry::parse_chrome_trace(c.str()).ok;
  });
  ep.gate(metrics_ok, what + ": hrt-metrics-v1 export parses");
  ep.gate(chrome_ok, what + ": Chrome trace export parses");
  return ns / 1e6;
}

// ---------------------------------------------------------------------------
// Workload phi_gang: the paper's section 6 BSP on a fresh 256-CPU Phi.

bsp::BspConfig bsp_config(const Line& l, std::uint32_t p) {
  bsp::BspConfig c;
  c.P = p;
  c.NE = static_cast<std::uint64_t>(Input::to_i(l, 1));
  c.NC = static_cast<std::uint64_t>(Input::to_i(l, 2));
  c.NW = static_cast<std::uint64_t>(Input::to_i(l, 3));
  c.N = static_cast<std::uint64_t>(Input::to_i(l, 4));
  c.period = Input::to_i(l, 5);
  c.mode = bsp::Mode::kGroupRt;
  // Group admission of P threads costs ~P collective steps; leave room.
  c.phase = sim::millis(3) + static_cast<sim::Nanos>(p) * sim::micros(80);
  return c;
}

Episode run_phi_gang(const Input& in) {
  Episode ep;
  Raw& r = ep.raw;
  const auto p = static_cast<std::uint32_t>(in.num("bsp_threads"));
  const bsp::BspConfig coarse = bsp_config(in.one("coarse"), p);
  const bsp::BspConfig fine = bsp_config(in.one("fine"), p);
  const Line& round = in.one("round");
  g_trace.id = static_cast<std::uint64_t>(Input::to_i(round, 1));
  SpanScope round_span("bench.round");

  System::Options o;
  o.spec = hw::MachineSpec::phi();
  o.seed = static_cast<std::uint64_t>(Input::to_i(round, 1));
  // The BSP node runs nothing else: shrink the reservations so group
  // admission has 90% of each CPU to give (as the figure 13-16 sweeps do).
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  std::unique_ptr<System> sys;
  const double ctor = timed("rt.system_ctor", [&] {
    sys = std::make_unique<System>(std::move(o));
  });
  const double boot = timed("rt.system_boot", [&] { sys->boot(); });
  ep.host.ctor_ms.push_back(ctor / 1e6);
  ep.host.boot_ms.push_back(boot / 1e6);
  ep.host.setup_s = (ctor + boot) / 1e9;

  // Per BSP run: its workers, and whether it already failed its gate.
  using Workers = std::vector<std::pair<const nk::Thread*, nk::Thread::Id>>;
  std::vector<Workers> run_workers;
  std::vector<bool> run_failed;
  int run = 0;
  for (const bsp::BspConfig* base : {&coarse, &fine}) {
    for (const bool barrier : {true, false}) {
      bsp::BspConfig cfg = *base;
      cfg.barrier = barrier;
      cfg.slice = cfg.period * Input::to_i(round, 2 + run) / 100;
      ++run;
      // run_bsp creates its workers internally.  One no-op event right
      // after the spawn records them, so their deadline counters can be read
      // after they exit (a reaped thread keeps its counters until a later
      // spawn reuses it).
      Workers& workers = run_workers.emplace_back();
      System* s = sys.get();
      s->engine().schedule_at(s->engine().now() + 1, [s, &workers] {
        for (nk::Thread* t : s->kernel().live_threads()) {
          if (!t->is_idle) workers.emplace_back(t, t->id);
        }
      });
      const sim::Nanos t0 = s->engine().now();
      const double ev0 = static_cast<double>(s->engine().events_executed());
      bsp::BspResult res;
      try {
        ep.host.timed_s +=
            timed("bsp.run_bsp", [&] { res = bsp::run_bsp(*s, cfg); }) / 1e9;
      } catch (const std::exception& e) {
        // The simulation's state is unknown after a throw: count this and
        // the round's remaining runs as failed and drop the System.
        ep.errors.push_back(std::string("bsp: ") + e.what());
        ep.attempted += static_cast<std::uint64_t>(5 - run);
        ep.failed += static_cast<std::uint64_t>(5 - run);
        return ep;
      }
      ep.host.sim_ms += static_cast<double>(s->engine().now() - t0) / 1e6;
      ep.host.events +=
          static_cast<double>(s->engine().events_executed()) - ev0;

      r["groups"] += 1;
      r["rt_requested"] += p;
      if (res.admission_ok) {
        r["groups_ok"] += 1;
        r["rt_admitted"] += p;
      }
      r["makespan_ns"] += static_cast<double>(res.makespan);
      r["group.barrier_rounds"] += static_cast<double>(res.barrier_rounds);
      if (!barrier) {
        ep.add_max("write_skew_max", static_cast<double>(res.max_write_skew));
      }
      for (const auto& [t, id] : workers) {
        if (t->id != id) continue;
        r["arrivals"] += static_cast<double>(t->rt.arrivals);
        r["misses"] += static_cast<double>(t->rt.misses);
      }
      const std::string tag =
          std::string(base == &coarse ? "coarse" : "fine") +
          (barrier ? " with barrier" : " barrier-free");
      const bool ok = res.all_done && res.admission_ok &&
                      (barrier || res.max_write_skew <= 1);
      ep.gate(ok, "bsp " + tag + ": all_done=" + std::to_string(res.all_done) +
                      " admission_ok=" + std::to_string(res.admission_ok) +
                      " skew=" + std::to_string(res.max_write_skew));
      run_failed.push_back(!ok);
    }
  }
  // One scan after the round's last run.  A BSP run with an overdue worker
  // is a failed operation (once, even if its gate failed too); a worker
  // still alive in a later run's list belongs to the earliest.
  for (const nk::Thread* t : scan_overdue(*sys, ep)) {
    for (std::size_t i = 0; i < run_workers.size(); ++i) {
      const auto& w = run_workers[i];
      if (std::find(w.begin(), w.end(), std::pair{t, t->id}) == w.end()) {
        continue;
      }
      if (!run_failed[i]) {
        run_failed[i] = true;
        ++ep.failed;
      }
      break;
    }
  }
  if (g_trace.on) {
    // BSP pins its threads, so placement is off this workload's path; probe
    // the decision on the booted machine so the layer is timed everywhere.
    for (int i = 0; i < 16; ++i) {
      const rt::Constraints c = rt::Constraints::periodic(
          0, sim::micros(500 + 100 * i), sim::micros(50 + 10 * i));
      ep.host.place_ns.push_back(timed("global.choose_cpu", [&] {
        (void)sys->placement().engine().choose_cpu(c);
      }));
    }
  }
  ep.host.export_ms =
      export_and_parse(sys->telemetry(), sys->engine().now(), "phi_gang", ep);
  ep.gate(sys->auditor().total_violations() == 0, "phi_gang: node audit");
  add_system(*sys, r);
  SpanScope teardown("rt.system_dtor");
  sys.reset();
  return ep;
}

// ---------------------------------------------------------------------------
// Workload spawn_churn: open-loop spawn requests on one phi_small(64).

struct ChurnTally {
  struct Rec {
    nk::Thread* thread;
    nk::Thread::Id id;
    std::string name;
    bool done;
  };
  std::vector<Rec> started;  // every RT worker that got its constraints
  double arrivals = 0;
  double misses = 0;
};

/// An RT worker: once admitted it computes in quarter-slice chunks for
/// `life` periods, then exits.  With `self_admit` it requests its own
/// constraints first (the decomposed place-then-spawn path); otherwise a
/// wrapper (auto-admit, batch reservation, group protocol) admitted it
/// before its first call.
class ChurnWorker final : public nk::Behavior {
 public:
  ChurnWorker(ChurnTally* tally, rt::Constraints c, std::int64_t life,
              bool self_admit)
      : tally_(tally), c_(c), life_(life), self_admit_(self_admit) {}

  nk::Action next(nk::ThreadCtx& ctx) override {
    if (self_admit_ && !asked_) {
      asked_ = true;
      return nk::Action::change_constraints(c_);
    }
    if (rec_ < 0) {
      if (self_admit_ && !ctx.last_admit_ok) return nk::Action::exit();
      rec_ = static_cast<std::int64_t>(tally_->started.size());
      tally_->started.push_back(
          {&ctx.self, ctx.self.id, ctx.self.name, false});
      // A split chunk runs under its own (shorter) constraints.
      const rt::Constraints& mine = ctx.self.constraints;
      end_ = ctx.wall_now +
             life_ * (mine.period > 0 ? mine.period : c_.period);
      chunk_ = std::max<sim::Nanos>(mine.slice / 4, sim::micros(1));
    }
    if (ctx.wall_now >= end_) {
      tally_->started[static_cast<std::size_t>(rec_)].done = true;
      tally_->arrivals += static_cast<double>(ctx.self.rt.arrivals);
      tally_->misses += static_cast<double>(ctx.self.rt.misses);
      return nk::Action::exit();
    }
    return nk::Action::compute(chunk_);
  }

 private:
  ChurnTally* tally_;
  rt::Constraints c_;
  std::int64_t life_;
  bool self_admit_;
  bool asked_ = false;
  std::int64_t rec_ = -1;
  sim::Nanos end_ = 0;
  sim::Nanos chunk_ = sim::micros(1);
};

Episode run_spawn_churn(const Input& in) {
  Episode ep;
  Raw& r = ep.raw;
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(
      static_cast<std::uint32_t>(in.num("cpus")));
  o.seed = static_cast<std::uint64_t>(in.num("machine_seed"));
  std::unique_ptr<System> sys;
  g_trace.id = 0;
  const double ctor = timed("rt.system_ctor", [&] {
    sys = std::make_unique<System>(std::move(o));
  });
  const double boot = timed("rt.system_boot", [&] { sys->boot(); });
  ep.host.ctor_ms.push_back(ctor / 1e6);
  ep.host.boot_ms.push_back(boot / 1e6);
  ep.host.setup_s = (ctor + boot) / 1e9;

  const sim::Nanos spacing = in.num("spacing_ns");
  const std::int64_t warmup = in.num("warmup_requests");
  const sim::Nanos drain = in.num("drain_ns");
  const auto reqs = in.all("req");
  ChurnTally tally;
  const sim::Nanos t_begin = sys->engine().now() + spacing;
  sim::Nanos t_timed = t_begin;
  double ev_timed = 0;
  Clock::time_point host_timed = Clock::now();
  std::size_t broken_at = reqs.size();  // first request that threw

  for (std::size_t i = 0; i < reqs.size() && broken_at == reqs.size(); ++i) {
    const Line& q = *reqs[i];
    const auto idx = static_cast<std::int64_t>(i);
    if (idx == warmup) {
      t_timed = sys->engine().now();
      ev_timed = static_cast<double>(sys->engine().events_executed());
      host_timed = Clock::now();
    }
    g_trace.id = static_cast<std::uint64_t>(i) + 1;
    SpanScope req_span("bench.request");
    const sim::Nanos due = t_begin + idx * spacing;
    const std::string& kind = q[1];
    const auto n = static_cast<std::uint32_t>(Input::to_i(q, 2));
    const rt::Constraints c = rt::Constraints::periodic(
        Input::to_i(q, 3), Input::to_i(q, 4), Input::to_i(q, 5));
    const std::int64_t life = Input::to_i(q, 6);
    const std::string name = "r" + std::to_string(i);
    auto worker = [&](bool self_admit) {
      return std::make_unique<ChurnWorker>(&tally, c, life, self_admit);
    };
    ++ep.attempted;
    try {
      timed("sim.run_until", [&] { sys->run_until(due); });
      // Open loop: the request is issued exactly when due in simulated
      // time, whatever happened to the previous ones; lateness is zero by
      // construction and measured anyway.
      ep.lateness_ns = std::max(
          ep.lateness_ns, static_cast<double>(sys->engine().now() - due));
      ++ep.requests_due;
      if (kind == "batch") {
        std::vector<System::SpawnSpec> specs;
        for (std::uint32_t k = 0; k < n; ++k) {
          specs.push_back({name + "." + std::to_string(k), worker(false), c,
                           rt::kDefaultPriority});
        }
        r["rt_requested"] += n;
        const double ns = timed("rt.spawn_batch", [&] {
          (void)sys->spawn_batch(std::move(specs));
        });
        if (idx >= warmup) ep.host.spawn_us.push_back(ns / 1e3);
      } else if (kind == "split") {
        std::vector<nk::Thread*> out;
        const double ns = timed("rt.spawn_split", [&] {
          out = sys->spawn_split(name, c,
                                 [&](std::uint32_t) { return worker(false); });
        });
        // A split that finds no plan requested one (unsplit) thread.
        r["rt_requested"] +=
            out.empty() ? 1.0 : static_cast<double>(out.size());
        if (idx >= warmup) ep.host.spawn_us.push_back(ns / 1e3);
      } else if (kind == "auto") {
        r["rt_requested"] += 1;
        timed("rt.spawn_auto",
              [&] { (void)sys->spawn_auto(name, worker(false), c); });
      } else if (kind == "group") {
        r["rt_requested"] += n;
        r["groups"] += 1;
        timed("rt.spawn_group_auto", [&] {
          (void)sys->spawn_group_auto(
              name + "g", n, c, [&](std::uint32_t) { return worker(false); });
        });
      } else if (kind == "place") {
        r["rt_requested"] += 1;
        std::uint32_t cpu = 0;
        const double ns =
            timed("global.place", [&] { cpu = sys->placement().place(c); });
        if (idx >= warmup) ep.host.place_ns.push_back(ns);
        timed("rt.spawn", [&] { (void)sys->spawn(name, worker(true), cpu); });
      } else {
        throw std::invalid_argument("unknown request kind " + kind);
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception& e) {
      // The scheduler threw from inside the simulation (e.g. a full run
      // queue); its state is unknown from here, so this request and every
      // later one count as failed operations.
      ep.errors.push_back("request " + std::to_string(i) + ": " + e.what());
      ep.failed += reqs.size() - i;
      ep.attempted += reqs.size() - i - 1;
      broken_at = i;
    }
  }
  if (broken_at == reqs.size()) {
    g_trace.id = reqs.size() + 1;
    try {
      timed("sim.run_until", [&] { sys->run_for(drain); });
    } catch (const std::exception& e) {
      ep.errors.push_back(std::string("drain: ") + e.what());
      ++ep.failed;
      ++ep.attempted;
    }
  }
  ep.host.timed_s = ns_between(host_timed, Clock::now()) / 1e9;
  ep.host.sim_ms = static_cast<double>(sys->engine().now() - t_timed) / 1e6;
  ep.host.events =
      static_cast<double>(sys->engine().events_executed()) - ev_timed;

  // A request with an overdue thread failed (those from the one that threw
  // on are counted already); thread names start with "r<request index>".
  std::set<std::size_t> failed_requests;
  for (const nk::Thread* t : scan_overdue(*sys, ep)) {
    const auto i = static_cast<std::size_t>(std::stoll(t->name.substr(1)));
    if (i < broken_at) failed_requests.insert(i);
  }
  ep.failed += failed_requests.size();
  std::set<std::string> groups_ok;
  for (const auto& rec : tally.started) {
    r["rt_admitted"] += 1;
    if (!rec.done && rec.thread->id == rec.id) {
      tally.arrivals += static_cast<double>(rec.thread->rt.arrivals);
      tally.misses += static_cast<double>(rec.thread->rt.misses);
    }
    // The group protocol admits all members or none.
    const auto g = rec.name.find("g.");
    if (g != std::string::npos) groups_ok.insert(rec.name.substr(0, g));
  }
  r["groups_ok"] += static_cast<double>(groups_ok.size());
  r["arrivals"] += tally.arrivals;
  r["misses"] += tally.misses;
  r["requests"] += static_cast<double>(ep.requests_due);
  ep.host.export_ms = export_and_parse(sys->telemetry(), sys->engine().now(),
                                       "spawn_churn", ep);
  ep.gate(sys->auditor().total_violations() == 0, "spawn_churn: node audit");
  add_system(*sys, r);
  SpanScope teardown("rt.system_dtor");
  sys.reset();
  return ep;
}

// ---------------------------------------------------------------------------
// Workload cluster_storm: 4 nodes, every observer on, an SMI storm on one
// node, a crash and restore of another, replay of a third node's trace.

cluster::JobKind job_kind(const std::string& s) {
  if (s == "gang") return cluster::JobKind::kGang;
  if (s == "pipeline") return cluster::JobKind::kPipeline;
  if (s == "batch") return cluster::JobKind::kBatch;
  if (s == "best_effort") return cluster::JobKind::kBestEffort;
  throw std::invalid_argument("unknown job kind " + s);
}

using SeenThreads =
    std::map<std::uint32_t, std::set<std::pair<nk::Thread*, nk::Thread::Id>>>;

/// True when the CPU's trace stays inside the replay oracle's model
/// (docs/AUDIT.md): once the replayed tasks start releasing, only they
/// (after admission), best-effort workers and the idle thread run there.
/// A thread requesting admission masks interrupts for the whole admission
/// call, a path the oracle's dispatch-latency tolerance does not cover.
bool inside_replay_model(System& node, std::uint32_t cpu,
                         const std::vector<audit::ReplayTask>& tasks,
                         const std::set<nk::Thread::Id>& best_effort) {
  sim::Nanos first_release = -1;
  std::map<std::uint32_t, sim::Nanos> gamma;
  for (const audit::ReplayTask& t : tasks) {
    gamma[t.thread_id] = t.gamma;
    const sim::Nanos r = t.gamma + t.constraints.phase;
    first_release = first_release < 0 ? r : std::min(first_release, r);
  }
  const auto idle = node.kernel().idle_thread(cpu)->id;
  for (const sim::TraceRecord& rec : node.machine().trace().records()) {
    if (rec.cpu != cpu || rec.kind != sim::TraceKind::kThreadActive ||
        rec.time < first_release) {
      continue;
    }
    const auto id = static_cast<std::uint32_t>(rec.value);
    auto g = gamma.find(id);
    if (g != gamma.end() ? rec.time < g->second
                         : id != idle && best_effort.count(id) == 0) {
      return false;
    }
  }
  return true;
}

/// Replays every sampled-node CPU whose RT task set stayed whole: the
/// oracle needs a CPU's complete task set, so a CPU that lost an RT thread
/// (exit, eviction, migration) during the trace is left out.  Divergences
/// on a CPU outside the oracle's model are reported apart and fail no gate.
void replay_sample_node(System& node, const SeenThreads& seen,
                        const std::set<nk::Thread::Id>& best_effort,
                        Episode& ep) {
  const audit::ReplayConfig cfg =
      audit::replay_config_for(node.machine().spec());
  std::uint64_t cpus = 0, tasks_total = 0, divergences = 0;
  std::uint64_t outside_cpus = 0, outside_divergences = 0;
  std::string first;
  ep.host.replay_ms = timed("audit.replay_edf", [&] {
    for (const auto& [cpu, threads] : seen) {
      bool whole = node.sched(cpu).stats().migrations_in == 0 &&
                   node.sched(cpu).stats().migrations_out == 0;
      std::vector<audit::ReplayTask> tasks;
      for (const auto& [t, id] : threads) {
        if (t->id != id || t->state == nk::Thread::State::kExited ||
            t->state == nk::Thread::State::kPooled || !t->is_realtime() ||
            t->cpu != cpu) {
          whole = false;
          break;
        }
        tasks.push_back({t->id, t->constraints, t->rt.gamma});
      }
      if (!whole || tasks.empty()) continue;
      audit::ReplayResult res = audit::replay_edf(
          node.machine().trace(), cpu, tasks, cfg, node.engine().now());
      for (const auto& [t, id] : threads) {
        audit::verify_stats(res, t->id, t->rt.arrivals, t->rt.completions,
                            t->rt.misses, 2);
      }
      if (!inside_replay_model(node, cpu, tasks, best_effort)) {
        ++outside_cpus;
        outside_divergences += res.divergences.size();
        continue;
      }
      ++cpus;
      tasks_total += tasks.size();
      divergences += res.divergences.size();
      if (!res.ok() && first.empty()) {
        first = "cpu " + std::to_string(cpu) + " t=" +
                std::to_string(res.divergences[0].time) + ": " +
                res.divergences[0].detail;
      }
    }
  }) / 1e6;
  ep.raw["audit.replayed_cpus"] += static_cast<double>(cpus);
  ep.raw["audit.replayed_tasks"] += static_cast<double>(tasks_total);
  ep.raw["audit.replay_divergences"] += static_cast<double>(divergences);
  ep.raw["audit.replay_cpus_outside_model"] +=
      static_cast<double>(outside_cpus);
  ep.raw["audit.replay_divergences_outside_model"] +=
      static_cast<double>(outside_divergences);
  ep.gate(cpus > 0, "cluster_storm: replay covered at least one CPU");
  ep.gate(divergences == 0, "cluster_storm: replay divergences=" +
                                std::to_string(divergences) + " " + first);
}

Episode run_cluster_storm(const Input& in) {
  Episode ep;
  Raw& r = ep.raw;
  cluster::ClusterController::Options o;
  o.nodes = static_cast<std::uint32_t>(in.num("nodes"));
  o.control_period = in.num("control_period_ns");
  auto& no = o.node_options;
  no.spec = hw::MachineSpec::phi_small(
      static_cast<std::uint32_t>(in.num("cpus")));
  no.seed = static_cast<std::uint64_t>(in.num("machine_seed"));
  // The storm is injected by hand below, so the spec carries no SMIs and
  // the budget audit gets the forced freezes' allowance explicitly.
  no.smi_enabled = false;
  no.spec.smi.enabled = false;
  no.audit.enabled = true;
  no.audit.budget_slop = in.num("budget_slop_ns");
  // Misses under a deliberate storm burn SLO budgets by design; they are
  // measured (miss_rate), not counted as scheduler invariant violations.
  no.audit.check_slo = false;
  no.resilience.enabled = true;
  no.telemetry.enabled = true;
  o.audit.enabled = true;
  o.telemetry.enabled = true;

  const auto storm_node = static_cast<std::uint32_t>(in.num("storm", 1));
  const sim::Nanos storm_begin = in.num("storm", 2);
  const sim::Nanos storm_end = in.num("storm", 3);
  const sim::Nanos storm_gap = in.num("storm", 4);
  const sim::Nanos storm_len = in.num("storm", 5);
  const auto sample = static_cast<std::uint32_t>(in.num("sample_node"));
  const sim::Nanos crash_at = in.num("crash", 1);
  const sim::Nanos restore_at = in.num("crash", 2);
  const sim::Nanos horizon = in.num("horizon_ns");

  g_trace.id = 0;
  if (g_trace.on) {
    // The controller builds and boots its nodes internally; time one
    // stand-alone node of the same template for the System layer.
    hrt::System::Options po = no;
    std::unique_ptr<System> probe;
    ep.host.ctor_ms.push_back(timed("rt.system_ctor", [&] {
      probe = std::make_unique<System>(std::move(po));
    }) / 1e6);
    ep.host.boot_ms.push_back(
        timed("rt.system_boot", [&] { probe->boot(); }) / 1e6);
  }

  std::unique_ptr<cluster::ClusterController> ctl;
  ep.host.setup_s = timed("cluster.ctor", [&] {
    ctl = std::make_unique<cluster::ClusterController>(std::move(o));
    ctl->node(sample).machine().trace().enable();
  }) / 1e9;

  for (const Line* t : in.all("tenant")) {
    ctl->add_tenant({(*t)[1], std::stod((*t)[2]),
                     static_cast<std::uint32_t>(Input::to_i(*t, 3))});
  }
  struct Submission {
    sim::Nanos at;
    cluster::JobSpec spec;
  };
  std::vector<Submission> subs;
  std::map<std::string, double> spec_threads;
  for (const Line* j : in.all("job")) {
    cluster::JobSpec s;
    s.tenant = (*j)[1];
    s.name = (*j)[2];
    s.kind = job_kind((*j)[3]);
    s.threads = static_cast<std::uint32_t>(Input::to_i(*j, 4));
    if (s.kind != cluster::JobKind::kBestEffort) {
      s.constraints = rt::Constraints::periodic(
          Input::to_i(*j, 5), Input::to_i(*j, 6), Input::to_i(*j, 7));
    }
    s.work_chunk = Input::to_i(*j, 8);
    spec_threads[s.name] = s.threads;
    subs.push_back({Input::to_i(*j, 9), std::move(s)});
  }
  {
    System& s = ctl->node(storm_node);
    for (sim::Nanos t = storm_begin; t < storm_end; t += storm_gap) {
      s.engine().schedule_at(
          t, [&s, storm_len] { s.machine().smi().force(storm_len); });
    }
  }

  const sim::Nanos period = ctl->options().control_period;
  const std::uint32_t nodes = ctl->num_nodes();
  std::uint32_t victim = cluster::kInvalidNode;
  bool restored = false;
  SeenThreads seen;  // every RT thread ever seen per sampled-node CPU
  std::set<nk::Thread::Id> best_effort;  // workers of best-effort jobs
  auto events = [&] {
    double e = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      e += static_cast<double>(ctl->node(n).engine().events_executed());
    }
    return e;
  };
  const double ev0 = events();
  const auto host0 = Clock::now();
  std::size_t next_sub = 0;
  std::uint64_t tick_id = 0;
  try {
    while (ctl->now() < horizon) {
      g_trace.id = ++tick_id;
      const sim::Nanos now = ctl->now();
      for (; next_sub < subs.size() && subs[next_sub].at <= now; ++next_sub) {
        timed("cluster.submit",
              [&] { (void)ctl->submit(subs[next_sub].spec); });
        ++ep.attempted;
      }
      if (victim == cluster::kInvalidNode && now + period > crash_at) {
        // Crash the busiest node that is neither stormed nor sampled, in
        // mid-control-period so detection latency is a real fraction of it.
        std::vector<double> load(nodes, 0.0);
        for (const auto& j : ctl->jobs()) {
          if (j.kind != cluster::JobKind::kBestEffort &&
              j.node != cluster::kInvalidNode) {
            load[j.node] += j.threads_admitted;
          }
        }
        for (std::uint32_t n = 0; n < nodes; ++n) {
          if (n == storm_node || n == sample) continue;
          if (victim == cluster::kInvalidNode || load[n] > load[victim]) {
            victim = n;
          }
        }
        ctl->fail_node(victim, crash_at);
      }
      if (!restored && victim != cluster::kInvalidNode && now >= restore_at) {
        restored = true;
        timed("cluster.restore_node", [&] { ctl->restore_node(victim); });
      }
      // Advance every live node to the boundary first, exactly as run_for
      // would before its tick, so the run_for call below times the tick.
      const sim::Nanos next = now + period;
      timed("sim.node_run_until", [&] {
        for (std::uint32_t n = 0; n < nodes; ++n) {
          if (ctl->node_state(n) == cluster::NodeState::kDown) continue;
          sim::Nanos target = next;
          if (n == victim && !restored) target = std::min(target, crash_at);
          if (ctl->node(n).engine().now() < target) {
            ctl->node(n).run_until(target);
          }
        }
      });
      ep.host.tick_us.push_back(
          timed("cluster.tick", [&] { ctl->run_for(period); }) / 1e3);
      if (g_trace.on) {
        const rt::Constraints c = rt::Constraints::periodic(
            0, sim::millis(1), sim::micros(100 + 20 * (tick_id % 8)));
        ep.host.place_ns.push_back(timed("global.choose_cpu", [&] {
          (void)ctl->node(sample).placement().engine().choose_cpu(c);
        }));
      }
      SpanScope track("bench.track_sample_node");
      for (const auto& j : ctl->jobs()) {
        if (j.kind != cluster::JobKind::kBestEffort) continue;
        for (const nk::Thread* t : ctl->job_threads(j.id)) {
          best_effort.insert(t->id);
        }
      }
      for (nk::Thread* t : ctl->node(sample).kernel().live_threads()) {
        if (!t->is_idle && t->state != nk::Thread::State::kExited &&
            t->is_realtime()) {
          seen[t->cpu].insert({t, t->id});
        }
      }
    }
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& e) {
    ep.errors.push_back(std::string("cluster run: ") + e.what());
    ++ep.failed;
    ++ep.attempted;
  }
  ep.host.timed_s = ns_between(host0, Clock::now()) / 1e9;
  ep.host.sim_ms = static_cast<double>(ctl->now()) / 1e6;
  ep.host.events = events() - ev0;
  g_trace.id = ++tick_id;

  // Overdue RT threads: one scan of every live node.
  std::set<std::pair<const nk::Thread*, nk::Thread::Id>> overdue;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    if (ctl->node_state(n) == cluster::NodeState::kDown) continue;
    for (const nk::Thread* t : scan_overdue(ctl->node(n), ep)) {
      overdue.insert({t, t->id});
    }
  }

  // Jobs: one that ended failed or lost, or has an overdue thread, is a
  // failed operation.  Admission is counted in threads: a running job's
  // admitted threads of its live ones; a job not running requested its
  // spec's threads (a pipeline, whose chunk count is only known once
  // placed, one).
  for (const auto& j : ctl->jobs()) {
    std::size_t late = 0;
    for (const nk::Thread* t : ctl->job_threads(j.id)) {
      late += overdue.erase({t, t->id});
    }
    const bool ended_badly = j.state == cluster::JobState::kFailed ||
                             j.state == cluster::JobState::kLost;
    if (ended_badly) {
      ep.errors.push_back("job " + j.name + " ended " +
                          cluster::job_state_name(j.state));
    }
    if (ended_badly || late > 0) ++ep.failed;
    if (j.kind == cluster::JobKind::kBestEffort) continue;
    if (j.kind == cluster::JobKind::kGang) {
      r["groups"] += 1;
      if (j.placements > 0) r["groups_ok"] += 1;
    }
    if (j.state == cluster::JobState::kRunning) {
      r["rt_requested"] += j.threads_alive;
      r["rt_admitted"] += j.threads_admitted;
    } else {
      r["rt_requested"] +=
          j.kind == cluster::JobKind::kPipeline ? 1.0 : spec_threads[j.name];
    }
    r["arrivals"] += static_cast<double>(j.arrivals);
    r["misses"] += static_cast<double>(j.misses);
  }
  if (!overdue.empty()) {
    ++ep.attempted;
    ++ep.failed;
    ep.errors.push_back(std::to_string(overdue.size()) +
                        " overdue RT threads outside any job");
  }

  System& snode = ctl->node(sample);
  replay_sample_node(snode, seen, best_effort, ep);
  ep.host.export_ms += export_and_parse(
      snode.telemetry(), snode.engine().now(), "cluster_storm node", ep);
  ep.host.export_ms += export_and_parse(ctl->telemetry(), ctl->now(),
                                        "cluster_storm controller", ep);

  Raw nodes_raw;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    add_system(ctl->node(n), nodes_raw);
  }
  // The SMI stolen fraction is an input property of the stormed node.
  nodes_raw["smi_stolen_ns"] = static_cast<double>(
      ctl->node(storm_node).machine().smi().stats().total_stolen_ns);
  nodes_raw["machine_ns"] = static_cast<double>(ctl->now());
  add_raw(r, nodes_raw);
  ep.gate(nodes_raw["audit.violations"] == 0,
          "cluster_storm: node audits, violations=" +
              std::to_string(nodes_raw["audit.violations"]));
  const double cv = static_cast<double>(ctl->auditor().total_violations());
  ep.gate(cv == 0,
          "cluster_storm: controller audit (kClusterLedger), violations=" +
              std::to_string(cv));
  r["audit.violations"] += cv;
  r["telemetry.records_written"] +=
      static_cast<double>(ctl->telemetry().recorder().written());
  r["telemetry.records_dropped"] +=
      static_cast<double>(ctl->telemetry().recorder().dropped());
  const auto& cs = ctl->stats();
  r["rt_delivered_ns"] += static_cast<double>(cs.rt_delivered_ns);
  r["rt_expected_ns"] += static_cast<double>(cs.rt_expected_ns);
  if (cs.replace_ns.count() > 0) {
    ep.add_max("replace_ns_max", cs.replace_ns.max());
  }
  if (cs.detect_ns.count() > 0) {
    ep.add_max("detect_ns_max", cs.detect_ns.max());
  }
  r["cluster.ticks"] += static_cast<double>(cs.ticks);
  r["cluster.placements"] += static_cast<double>(cs.placements);
  r["cluster.replacements"] += static_cast<double>(cs.replacements);
  r["cluster.failed_placements"] += static_cast<double>(cs.failed_placements);
  r["cluster.failovers"] += static_cast<double>(cs.failovers);
  SpanScope teardown("cluster.dtor");
  ctl.reset();
  return ep;
}

Episode run_unit(const std::string& workload, const Input& in) {
  if (workload == "phi_gang") return run_phi_gang(in);
  if (workload == "spawn_churn") return run_spawn_churn(in);
  if (workload == "cluster_storm") return run_cluster_storm(in);
  throw std::invalid_argument("unknown workload " + workload);
}

// ---------------------------------------------------------------------------
// Reporting.

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + quote(v[i]);
  }
  return out + "]";
}

double quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median, p99, and the highest of p99.9/p99/p90 with at least ten
/// samples beyond it (the maximum below 100 samples).
std::string summary(const std::vector<double>& v) {
  if (v.empty()) {
    return "{\"n\": 0, \"p50\": 0, \"p99\": 0, \"tail\": \"none\", "
           "\"tail_value\": 0}";
  }
  std::string tail_name = "max";
  double tail = *std::max_element(v.begin(), v.end());
  for (const auto& [name, p] : {std::pair<const char*, double>{"p999", 0.999},
                                {"p99", 0.99},
                                {"p90", 0.9}}) {
    if (static_cast<double>(v.size()) * (1.0 - p) >= 10.0) {
      tail_name = name;
      tail = quantile(v, p);
      break;
    }
  }
  return "{\"n\": " + std::to_string(v.size()) +
         ", \"p50\": " + num(quantile(v, 0.5)) +
         ", \"p99\": " + num(quantile(v, 0.99)) + ", \"tail\": " +
         quote(tail_name) + ", \"tail_value\": " + num(tail) + "}";
}

std::string raw_json(const Raw& e) {
  std::string out = "{";
  for (const auto& [k, v] : e) {
    out += (out.size() > 1 ? ", " : "") + quote(k) + ": " + num(v);
  }
  return out + "}";
}

/// Host self time per layer (span duration minus its children's), as a
/// share of all traced time.
std::string self_time_shares(const std::vector<Span>& s) {
  std::vector<double> child(s.size(), 0.0);
  for (const Span& sp : s) {
    if (sp.parent >= 0) {
      child[static_cast<std::size_t>(sp.parent)] += sp.end_ns - sp.start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  double total = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::string name = s[i].name;
    const double self = (s[i].end_ns - s[i].start_ns) - child[i];
    by_layer[name.substr(0, name.find('.'))] += self;
    total += self;
  }
  std::string out = "{";
  for (const auto& [layer, ns] : by_layer) {
    out += (out.size() > 1 ? ", " : "") + quote(layer) + ": " +
           num(total > 0 ? ns / total : 0.0);
  }
  return out + "}";
}

/// One JSON object per line: the env stamp first, then every span.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::string& env) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << "{\"env\": " << env << "}\n";
  for (const Span& s : spans) {
    f << "{\"name\": " << quote(s.name) << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"start_ns\": " << num(s.start_ns)
      << ", \"end_ns\": " << num(s.end_ns) << "}\n";
  }
}

/// Provenance: the figure benches' env object plus the build type.
std::string env_json() {
  std::string out = bench::env_json();
  out.pop_back();  // the closing '}'
  return out + ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload, input, check_input, spans;
  double seconds = 10;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--input") {
      a.input = v;
    } else if (k == "--check-input") {
      a.check_input = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || a.input.empty() || a.check_input.empty()) {
    throw std::invalid_argument(
        "usage: perfbench --workload W --input F --check-input F "
        "--seconds S --trace 0|1 [--spans F]");
  }
  return a;
}

struct Execution {
  std::size_t unit;
  bool traced;
  Episode ep;
};

/// Median of a host quantity over one unit's executions.
double unit_median(const std::vector<Execution>& xs, std::size_t unit,
                   bool traced, double Host::*field) {
  std::vector<double> v;
  for (const Execution& x : xs) {
    if (x.unit == unit && x.traced == traced) v.push_back(x.ep.host.*field);
  }
  return v.empty() ? 0.0 : quantile(v, 0.5);
}

int run(const Args& args) {
  const std::vector<Input> units = Input::read_units(args.input);
  const std::vector<Input> check_units = Input::read_units(args.check_input);
  const std::size_t n_units = units.size();

  // Units run round-robin; in a traced run every other pass is traced, so
  // the tracing overhead is measured on the same units in the same process.
  // The minimum covers every unit untraced (and traced, when tracing) once,
  // plus one repeat of unit 0 for the determinism check.
  std::vector<Execution> xs;
  const auto t0 = Clock::now();
  const std::size_t min_execs = args.trace ? 2 * n_units : n_units + 1;
  for (std::size_t i = 0;
       i < min_execs || ns_between(t0, Clock::now()) < args.seconds * 1e9;
       ++i) {
    const std::size_t unit = i % n_units;
    const bool traced = args.trace && (i / n_units) % 2 == 1;
    g_trace.on = traced;
    xs.push_back({unit, traced, run_unit(args.workload, units[unit])});
  }
  g_trace.on = false;
  const Episode check = run_unit(args.workload, check_units.front());

  // Determinism: every repeat of a unit must reproduce its first
  // execution's simulated counters bit for bit.  Traced executions only add
  // host-side probes, so they are held to the same rule.
  std::vector<const Episode*> first(n_units, nullptr);
  std::set<std::string> nondeterministic;
  for (const Execution& x : xs) {
    if (first[x.unit] == nullptr) {
      first[x.unit] = &x.ep;
      continue;
    }
    const Raw& a = first[x.unit]->raw;
    const Raw& b = x.ep.raw;
    for (const auto& [key, v] : a) {
      auto it = b.find(key);
      if (it == b.end() || std::memcmp(&it->second, &v, sizeof(double)) != 0) {
        nondeterministic.insert(key);
      }
    }
    if (a.size() != b.size()) nondeterministic.insert("(key set)");
  }
  std::size_t moved = 0;
  for (const auto& [key, v] : first[0]->raw) {
    auto it = check.raw.find(key);
    if (it != check.raw.end() && it->second != v) ++moved;
  }

  // Simulated metrics and operation counts: the units' first executions.
  // A failed gate on any repeat counts as well.
  Raw raw;
  Episode all;
  std::set<std::string> gates;
  for (const Episode* ep : first) {
    add_raw(raw, ep->raw);
    all.attempted += ep->attempted;
    all.failed += ep->failed;
    all.requests_due += ep->requests_due;
    all.lateness_ns = std::max(all.lateness_ns, ep->lateness_ns);
    all.errors.insert(all.errors.end(), ep->errors.begin(), ep->errors.end());
    all.overdue.insert(all.overdue.end(), ep->overdue.begin(),
                       ep->overdue.end());
  }
  for (const Execution& x : xs) {
    gates.insert(x.ep.gate_failures.begin(), x.ep.gate_failures.end());
  }

  // Host metrics.  Rates weigh every unit once: simulated ms (or events)
  // summed over units, over the sum of each unit's median host time.
  auto rate = [&](bool traced) {
    double sim_ms = 0, host_s = 0;
    for (std::size_t u = 0; u < n_units; ++u) {
      sim_ms += unit_median(xs, u, traced, &Host::sim_ms);
      host_s += unit_median(xs, u, traced, &Host::timed_s);
    }
    return host_s > 0 ? sim_ms / host_s : 0.0;
  };
  double host_s = 0, events = 0;
  for (std::size_t u = 0; u < n_units; ++u) {
    host_s += unit_median(xs, u, false, &Host::timed_s);
    events += unit_median(xs, u, false, &Host::events);
  }
  std::vector<double> setup, spawn, place, tick, ctor, boot, export_ms,
      replay_ms;
  std::size_t untraced = 0;
  for (const Execution& x : xs) {
    const Host& h = x.ep.host;
    // spawn_churn's place-then-spawn path times GlobalScheduler::place in
    // every execution; the other workloads probe it in traced ones only.
    place.insert(place.end(), h.place_ns.begin(), h.place_ns.end());
    if (x.traced) {
      ctor.insert(ctor.end(), h.ctor_ms.begin(), h.ctor_ms.end());
      boot.insert(boot.end(), h.boot_ms.begin(), h.boot_ms.end());
      continue;
    }
    ++untraced;
    setup.push_back(h.setup_s);
    spawn.insert(spawn.end(), h.spawn_us.begin(), h.spawn_us.end());
    tick.insert(tick.end(), h.tick_us.begin(), h.tick_us.end());
    export_ms.push_back(h.export_ms);
    replay_ms.push_back(h.replay_ms);
  }

  std::string out = "{\"workload\": " + quote(args.workload);
  out += ", \"units\": " + std::to_string(n_units);
  out += ", \"executions\": " + std::to_string(untraced);
  out += ", \"traced_executions\": " + std::to_string(xs.size() - untraced);
  out += ", \"attempted\": " + std::to_string(all.attempted);
  out += ", \"failed\": " + std::to_string(all.failed);
  out += ", \"exact\": " + raw_json(derive(raw));
  out += ", \"check_exact\": " + raw_json(derive(check.raw));
  out += ", \"nondeterministic\": " +
         list({nondeterministic.begin(), nondeterministic.end()});
  out += ", \"moved_by_check_input\": " + std::to_string(moved);
  out += ", \"gate_failures\": " + list({gates.begin(), gates.end()});
  out += ", \"errors\": " + list(all.errors);
  out += ", \"overdue_threads\": " + list(all.overdue);
  out += ", \"requests\": " + std::to_string(all.requests_due);
  out += ", \"generator_lateness_ns\": " + num(all.lateness_ns);
  out += ", \"host\": {\"setup_s\": " + summary(setup);
  out += ", \"sim_ms_per_wall_s\": " + num(rate(false));
  out += ", \"host_ns_per_event\": " +
         num(host_s * 1e9 / std::max(events, 1.0));
  out += ", \"spawn_us\": " + summary(spawn);
  out += ", \"place_ns\": " + summary(place);
  out += ", \"cluster_tick_us\": " + summary(tick);
  out += ", \"telemetry_export_ms\": " + summary(export_ms);
  out += ", \"audit_replay_ms\": " + summary(replay_ms);
  out += ", \"peak_rss_mb\": " + num(peak_rss_mb());
  if (args.trace) {
    out += ", \"traced_sim_ms_per_wall_s\": " + num(rate(true));
    out += ", \"system_ctor_ms\": " + summary(ctor);
    out += ", \"system_boot_ms\": " + summary(boot);
    out += ", \"self_time_frac\": " + self_time_shares(g_trace.spans);
    out += ", \"spans\": " + std::to_string(g_trace.spans.size());
  }
  out += "}, \"env\": " + env_json() + "}";
  if (args.trace && !args.spans.empty()) {
    write_spans(args.spans, g_trace.spans, env_json());
  }
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
