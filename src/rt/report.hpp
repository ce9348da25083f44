// Human-readable scheduling reports: per-CPU scheduler statistics and a
// per-thread timing table.  Examples and interactive tools use this the way
// an operator would use a /proc interface on the real system.
#pragma once

#include <ostream>

#include "rt/system.hpp"

namespace hrt::rt {

struct ReportOptions {
  bool include_idle_threads = false;
  bool include_pooled_threads = false;
  /// Only report CPUs whose scheduler has seen at least one pass beyond
  /// boot (quiet CPUs add noise on a 256-CPU machine).
  bool skip_quiet_cpus = true;
};

/// Per-CPU tables: passes (timer/kick), switches, admissions, admitted
/// utilization, queue depths, overhead means; then idle passes and one-shot
/// arms by the term that set the target (timer provenance).
void print_cpu_report(System& sys, std::ostream& os,
                      const ReportOptions& opt = {});

/// Per-thread table: class, constraints, arrivals/completions/misses,
/// CPU time, dispatches.
void print_thread_report(System& sys, std::ostream& os,
                         const ReportOptions& opt = {});

/// Invariant-audit summary: checks run, violations (with details), one line
/// per recorded violation.  Prints nothing when audits are disabled.
void print_audit_report(System& sys, std::ostream& os);

/// Telemetry summary (docs/OBSERVABILITY.md): per-CPU event counters and
/// pass spans from the metrics registry, recorder accounting, and one line
/// per declared SLO with its windowed burn rate.  Prints nothing when the
/// telemetry subsystem is disabled.
void print_telemetry_report(System& sys, std::ostream& os);

/// Both, plus machine-level counters (SMIs, events) and — when enabled —
/// the audit and telemetry summaries.
void print_report(System& sys, std::ostream& os,
                  const ReportOptions& opt = {});

}  // namespace hrt::rt
