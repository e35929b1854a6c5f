//===-- sessionbench/sessionbench.cpp - Debugging-session benchmark -------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Runs one workload of debugging sessions through the public API, closed
// loop (one session at a time), and prints one JSON result line last.
//
//   sessionbench --workload table3|longtrace|fuzz --seed N --seconds S
//                --trace 0|1 [--trace-dir DIR]
//   sessionbench --smoke
//
// --trace 0 times the sessions with no stats or trace sink attached and
// reports the end-to-end metrics. --trace 1 runs every session twice,
// once without sinks and once with a fresh StatsRegistry + EventTracer,
// checks the two LocateReports are identical, and reports the per-layer
// metrics read from the sinks and from the benchmark's own timed calls
// into each layer. --smoke runs a few traced sessions of each workload
// and exits non-zero on any failed check. See README.md.
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"
#include "gen/RandomProgram.h"
#include "lang/Parser.h"
#include "support/Diagnostic.h"
#include "support/RNG.h"
#include "support/EventTracer.h"
#include "support/Stats.h"
#include "workloads/Runner.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace eoe;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Verification worker threads for every session: min(4, cores).
unsigned benchThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// Process-wide CPU time and minor page faults (all threads).
struct ProcUsage {
  double CpuMs = 0;
  long MinFlt = 0;

  static ProcUsage now() {
    rusage U{};
    getrusage(RUSAGE_SELF, &U);
    auto Ms = [](const timeval &T) { return T.tv_sec * 1e3 + T.tv_usec / 1e3; };
    return {Ms(U.ru_utime) + Ms(U.ru_stime), U.ru_minflt};
  }
};

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports KiB.
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile, \p P in (0, 100].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(P / 100 * V.size() + 0.999999);
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

//===----------------------------------------------------------------------===//
// Span attribution
//===----------------------------------------------------------------------===//

/// Per-name totals over the spans of one tracer. A span's self time is
/// its duration minus the durations of its direct children (spans on the
/// same thread nested inside it).
struct SpanTotals {
  std::map<std::string, double> SelfMs;
  std::map<std::string, double> TotalMs;
  /// locate.round time minus the prune spans nested in it: the part of
  /// a round spent selecting, verifying and committing dependences.
  double RoundExclPruneMs = 0;
};

/// Attributes the spans that start in [FromNs, ToNs).
SpanTotals attribute(const std::vector<support::EventTracer::Event> &Events,
                     uint64_t FromNs = 0, uint64_t ToNs = UINT64_MAX) {
  std::vector<const support::EventTracer::Event *> Spans;
  for (const auto &E : Events)
    if (E.Phase == 'X' && E.StartNs >= FromNs && E.StartNs < ToNs)
      Spans.push_back(&E);
  std::sort(Spans.begin(), Spans.end(), [](auto *A, auto *B) {
    if (A->Tid != B->Tid)
      return A->Tid < B->Tid;
    if (A->StartNs != B->StartNs)
      return A->StartNs < B->StartNs;
    return A->DurationNs > B->DurationNs;
  });
  std::vector<double> ChildMs(Spans.size(), 0), PruneChildMs(Spans.size(), 0);
  std::vector<size_t> Stack;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const auto *S = Spans[I];
    while (!Stack.empty()) {
      const auto *Top = Spans[Stack.back()];
      if (Top->Tid == S->Tid &&
          S->StartNs + S->DurationNs <= Top->StartNs + Top->DurationNs)
        break;
      Stack.pop_back();
    }
    if (!Stack.empty()) {
      double Ms = S->DurationNs / 1e6;
      ChildMs[Stack.back()] += Ms;
      if (S->Name == "prune")
        PruneChildMs[Stack.back()] += Ms;
    }
    Stack.push_back(I);
  }
  SpanTotals T;
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Ms = Spans[I]->DurationNs / 1e6;
    T.TotalMs[Spans[I]->Name] += Ms;
    T.SelfMs[Spans[I]->Name] += Ms - ChildMs[I];
    if (Spans[I]->Name == "locate.round")
      T.RoundExclPruneMs += Ms - PruneChildMs[I];
  }
  return T;
}

double get(const std::map<std::string, double> &M, const std::string &K) {
  auto It = M.find(K);
  return It == M.end() ? 0 : It->second;
}

//===----------------------------------------------------------------------===//
// Sessions
//===----------------------------------------------------------------------===//

/// Observability sinks for one session; both null in untraced runs.
struct Sinks {
  support::StatsRegistry *Stats = nullptr;
  support::EventTracer *Tracer = nullptr;
};

/// What one session produced, beyond its wall time.
struct SessionResult {
  /// Every correctness check passed; otherwise Problem names the first
  /// that failed.
  bool Ok = true;
  std::string Problem;
  /// LocateReport (and what else the session computed) rendered as text:
  /// compared between the no-sink and fresh-sink runs of one session.
  std::string Signature;
  size_t Verifications = 0;
  size_t Reexecutions = 0;
  /// Oracle isBenign() calls, where the benchmark owns the oracle.
  double OracleQueries = -1;
  /// Wall and process CPU across locate(), where the benchmark calls it.
  double LocateMs = -1;
  double LocateCpuMs = -1;

  void fail(std::string Why) {
    if (Ok)
      Problem = std::move(Why);
    Ok = false;
  }
};

/// The programmer in the loop: knows only the root cause statement, and
/// counts how often it is asked about an instance.
class CountingRootOracle : public slicing::Oracle {
public:
  explicit CountingRootOracle(StmtId Root) : Root(Root) {}
  bool isBenign(TraceIdx) override {
    ++Queries;
    return false;
  }
  bool isRootCause(StmtId S) override { return S == Root; }
  size_t Queries = 0;

private:
  StmtId Root;
};

std::string reportSignature(const core::LocateReport &R) {
  std::ostringstream OS;
  OS << "found=" << R.RootCauseFound << " prunings=" << R.UserPrunings
     << " verif=" << R.Verifications << " reexec=" << R.Reexecutions
     << " iter=" << R.Iterations << " edges=" << R.ExpandedEdges << "/"
     << R.StrongEdges << " ips=" << R.IPSStats.StaticStmts << "/"
     << R.IPSStats.DynamicInstances << " [";
  for (TraceIdx I : R.FinalPrunedSlice)
    OS << I << ' ';
  OS << "]";
  return OS.str();
}

std::string edgeSignature(const ddg::DepGraph &G) {
  std::ostringstream OS;
  for (const auto &E : G.implicitEdges())
    OS << " " << E.Use << "->" << E.Pred << (E.Strong ? "s" : "");
  return OS.str();
}

/// The benchmark's own timed calls into each layer's public functions
/// for one subject, outside any timed session (traced runs only).
void probeLayers(const std::string &Source, const std::vector<int64_t> &Input,
                 const std::vector<int64_t> &Expected,
                 const std::vector<std::vector<int64_t>> &TestSuite,
                 const core::DebugSession::Config &C,
                 std::map<std::string, double> &Out) {
  DiagnosticEngine Diags;
  Clock::time_point T0 = Clock::now();
  auto Prog = lang::parseAndCheck(Source, Diags);
  Out["lang.parse_ms"] = msSince(T0);
  if (!Prog)
    return;
  T0 = Clock::now();
  analysis::StaticAnalysis SA(*Prog);
  Out["analysis.static_ms"] = msSince(T0);
  interp::Interpreter Interp(*Prog, SA);
  interp::Interpreter::Options Plain;
  Plain.Trace = false;
  T0 = Clock::now();
  Interp.run(Input, Plain);
  Out["interp.plain_ms"] = msSince(T0);

  T0 = Clock::now();
  core::DebugSession Session(*Prog, Input, Expected, TestSuite, C);
  Out["core.session_build_ms"] = msSince(T0);
  Out["interp.steps"] = static_cast<double>(Session.trace().size());
  if (!Session.hasFailure())
    return;
  T0 = Clock::now();
  Session.dynamicSlice();
  Out["slicing.ds_ms"] = msSince(T0);
  T0 = Clock::now();
  Session.relevantSlice();
  Out["slicing.rs_ms"] = msSince(T0);
  T0 = Clock::now();
  Session.prunedSlice();
  Out["slicing.ps_ms"] = msSince(T0);
}

/// One workload: a fixed list of sessions, built by setup() from a seed.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds the inputs from \p Seed, replacing any earlier ones. False
  /// (with \p Err set) when the inputs cannot be built or fail their own
  /// checks.
  virtual bool setup(uint64_t Seed, std::string &Err) = 0;
  virtual size_t size() const = 0;
  virtual std::string label(size_t I) const = 0;
  /// Runs session \p I with its correctness checks.
  virtual SessionResult run(size_t I, const Sinks &S) = 0;
  /// Per-layer times from the benchmark's own calls (traced runs).
  virtual void probe(size_t I, std::map<std::string, double> &Out) = 0;
  /// Sessions the smoke mode runs.
  virtual std::vector<size_t> smokeSessions() const {
    std::vector<size_t> V;
    for (size_t I = 0; I < std::min<size_t>(size(), 8); ++I)
      V.push_back(I);
    return V;
  }
  /// Once-per-run invariance checks of the traced run; empty = passed.
  virtual std::string runInvariance() { return ""; }
  /// Human-readable set-up summary.
  virtual std::string describe() const = 0;
};

//===----------------------------------------------------------------------===//
// table3: the nine paper faults through FaultRunner
//===----------------------------------------------------------------------===//

/// First source line (1-based) where two line-aligned sources differ.
uint32_t mutationLine(const std::string &A, const std::string &B) {
  std::istringstream SA(A), SB(B);
  std::string LA, LB;
  for (uint32_t Line = 1;; ++Line) {
    bool MoreA = static_cast<bool>(std::getline(SA, LA));
    bool MoreB = static_cast<bool>(std::getline(SB, LB));
    if (!MoreA && !MoreB)
      return 0;
    if (MoreA != MoreB || LA != LB)
      return Line;
  }
}

class Table3Workload : public Workload {
  struct Case {
    const workloads::FaultInfo *Fault = nullptr;
    std::unique_ptr<workloads::FaultRunner> Runner;
    /// The statement on the fault's mutation line.
    StmtId Root = InvalidId;
    /// Failing run, trace index -> statement (to find the root in IPS).
    std::vector<StmtId> StepStmt;
  };
  std::vector<Case> Cases;

  workloads::FaultRunner::Options options(const Sinks &S) const {
    workloads::FaultRunner::Options O;
    O.ComputeSlices = true;
    O.Opt.Exec.Threads = benchThreads();
    O.Opt.Exec.Stats = S.Stats;
    O.Opt.Exec.Tracer = S.Tracer;
    return O;
  }

public:
  bool setup(uint64_t, std::string &Err) override {
    // The paper's nine faults are fixed inputs; the seed does not vary them.
    Cases.clear();
    for (const workloads::FaultInfo &F : workloads::faults()) {
      Case C;
      C.Fault = &F;
      C.Runner = std::make_unique<workloads::FaultRunner>(F);
      if (!C.Runner->valid()) {
        Err = F.Id + ": fault does not reproduce";
        return false;
      }
      const lang::Program &Prog = C.Runner->faultyProgram();
      C.Root = Prog.statementAtLine(mutationLine(F.FaultySource, F.FixedSource));
      if (!isValidId(C.Root)) {
        Err = F.Id + ": no statement on the mutation line";
        return false;
      }
      analysis::StaticAnalysis SA(Prog);
      interp::Interpreter Interp(Prog, SA);
      interp::ExecutionTrace T = Interp.run(F.FailingInput);
      for (size_t I = 0; I < T.size(); ++I)
        C.StepStmt.push_back(T.step(static_cast<TraceIdx>(I)).Stmt);
      Cases.push_back(std::move(C));
    }
    return true;
  }

  size_t size() const override { return Cases.size(); }
  std::string label(size_t I) const override { return Cases[I].Fault->Id; }

  SessionResult run(size_t I, const Sinks &S) override {
    const Case &C = Cases[I];
    workloads::ExperimentResult R = C.Runner->run(options(S));
    SessionResult Out;
    const core::LocateReport &Rep = R.Report;
    Out.Verifications = Rep.Verifications;
    Out.Reexecutions = Rep.Reexecutions;
    std::ostringstream Sig;
    Sig << reportSignature(Rep) << " valid=" << R.Valid << " rs="
        << R.RS.StaticStmts << "/" << R.RS.DynamicInstances << " ds="
        << R.DS.StaticStmts << "/" << R.DS.DynamicInstances << " ps="
        << R.PS.StaticStmts << "/" << R.PS.DynamicInstances << " os="
        << R.OS.StaticStmts << "/" << R.OS.DynamicInstances;
    Out.Signature = Sig.str();

    if (C.Runner->rootCause() != C.Root)
      Out.fail("runner's root cause is not the mutated statement");
    if (!R.Valid)
      Out.fail("root cause not located in both phases");
    bool InIPS = false;
    for (TraceIdx T : Rep.FinalPrunedSlice)
      InIPS |= T < C.StepStmt.size() && C.StepStmt[T] == C.Root;
    if (!InIPS)
      Out.fail("root cause missing from IPS");
    if (!R.RSHasRoot)
      Out.fail("RS misses the root cause");
    if (R.DSHasRoot)
      Out.fail("DS contains the root cause");
    if (R.PSHasRoot)
      Out.fail("PS contains the root cause");
    if (!(R.RS.DynamicInstances >= R.DS.DynamicInstances &&
          R.DS.DynamicInstances >= R.PS.DynamicInstances))
      Out.fail("dynamic sizes violate |RS| >= |DS| >= |PS|");
    return Out;
  }

  void probe(size_t I, std::map<std::string, double> &Out) override {
    const workloads::FaultInfo &F = *Cases[I].Fault;
    core::DebugSession::Config DC;
    DC.Opt = options(Sinks()).Opt;
    probeLayers(F.FaultySource, F.FailingInput,
                Cases[I].Runner->expectedOutputs(), F.TestSuite, DC, Out);
  }

  std::vector<size_t> smokeSessions() const override {
    // The cheapest faults: one per benchmark program but gzip, whose
    // session takes seconds.
    std::vector<size_t> V;
    for (size_t I = 0; I < Cases.size(); ++I) {
      const std::string &Id = Cases[I].Fault->Id;
      if (Id == "flex-v3-f10" || Id == "grep-v4-f2" || Id == "sed-v3-f3")
        V.push_back(I);
    }
    return V;
  }

  std::string describe() const override {
    return std::to_string(Cases.size()) +
           " paper faults, two-phase FaultRunner::run with slices";
  }
};

//===----------------------------------------------------------------------===//
// longtrace: K cold guards ahead of a long crc loop
//===----------------------------------------------------------------------===//

class LongtraceWorkload : public Workload {
  static constexpr int Guards = 8;
  static constexpr int64_t LoopIters = 100000; // ~3 steps per iteration

  int RootGuard = 0;
  std::string FaultySource;
  std::unique_ptr<lang::Program> Faulty;
  std::vector<int64_t> Input;
  std::vector<int64_t> Expected; // the fixed program's outputs
  int64_t NativeCrc = 0;
  StmtId Root = InvalidId;      // the cold guard's initialization
  std::vector<StmtId> GuardIfs; // each guard's `if`; the cold one is RootGuard
  std::string ThreadInvariance;

  /// Guard g sits on source line Guards + 3 + 3g; its initialization on
  /// line 2 + g. The fixed program arms guard RootGuard; the faulty one
  /// leaves every guard cold, so flags misses 1 << RootGuard.
  std::string subject(bool Fixed) const {
    std::string Src = "fn main() {\n";
    for (int G = 0; G < Guards; ++G)
      Src += "var c" + std::to_string(G) + " = " +
             ((Fixed && G == RootGuard) ? "1" : "0") + ";\n";
    Src += "var flags = 0;\n";
    for (int G = 0; G < Guards; ++G)
      Src += "if (c" + std::to_string(G) + ") {\nflags = flags + " +
             std::to_string(1 << G) + ";\n}\n";
    Src += "var n = input();\n"
           "var crc = input();\n"
           "var i = 0;\n"
           "while (i < n) {\n"
           "crc = (crc * 31 + i) % 65521;\n"
           "i = i + 1;\n"
           "}\n"
           "print(crc);\n"
           "print(flags);\n"
           "}\n";
    return Src;
  }

  core::DebugSession::Config config(const Sinks &S, unsigned Threads) const {
    core::DebugSession::Config C;
    C.Opt.Exec.Threads = Threads;
    C.Opt.Exec.Stats = S.Stats;
    C.Opt.Exec.Tracer = S.Tracer;
    return C;
  }

  SessionResult session(const Sinks &S, unsigned Threads) {
    SessionResult Out;
    core::DebugSession Session(*Faulty, Input, Expected, {},
                               config(S, Threads));
    const interp::ExecutionTrace &T = Session.trace();
    if (T.outputValues() != std::vector<int64_t>{NativeCrc, 0}) {
      Out.fail("faulty run did not print the native crc and cold flags");
      return Out;
    }
    if (!Session.hasFailure()) {
      Out.fail("no failure observed");
      return Out;
    }
    CountingRootOracle Oracle(Root);
    ProcUsage U0 = ProcUsage::now();
    Clock::time_point T0 = Clock::now();
    core::LocateReport R = Session.locate(Oracle);
    Out.LocateMs = msSince(T0);
    Out.LocateCpuMs = ProcUsage::now().CpuMs - U0.CpuMs;
    Out.OracleQueries = static_cast<double>(Oracle.Queries);
    Out.Verifications = R.Verifications;
    Out.Reexecutions = R.Reexecutions;
    Out.Signature = reportSignature(R) + edgeSignature(Session.graph());

    if (!R.RootCauseFound)
      Out.fail("root cause not located");
    // The located dependence must lead to the cold guard, and to none of
    // the other guards a switch would also make print a new value.
    bool ToColdGuard = false;
    for (const auto &E : Session.graph().implicitEdges()) {
      if (!E.Strong)
        continue;
      auto G = std::find(GuardIfs.begin(), GuardIfs.end(), T.step(E.Pred).Stmt);
      if (G == GuardIfs.end())
        continue;
      if (G - GuardIfs.begin() == RootGuard)
        ToColdGuard = true;
      else
        Out.fail("strong implicit edge to guard " +
                 std::to_string(G - GuardIfs.begin()));
    }
    if (!ToColdGuard)
      Out.fail("no strong implicit edge to the cold guard");
    return Out;
  }

public:
  bool setup(uint64_t Seed, std::string &Err) override {
    RootGuard = static_cast<int>(Seed % Guards);
    RNG R(Seed);
    int64_t CrcInit = R.nextInRange(0, 65520);
    Input = {LoopIters, CrcInit};
    NativeCrc = CrcInit;
    for (int64_t I = 0; I < LoopIters; ++I)
      NativeCrc = (NativeCrc * 31 + I) % 65521;

    DiagnosticEngine Diags;
    auto Fixed = lang::parseAndCheck(subject(true), Diags);
    FaultySource = subject(false);
    Faulty = lang::parseAndCheck(FaultySource, Diags);
    if (!Fixed || !Faulty) {
      Err = "subject does not parse: " + Diags.str();
      return false;
    }
    analysis::StaticAnalysis SA(*Fixed);
    interp::Interpreter Interp(*Fixed, SA);
    interp::Interpreter::Options Plain;
    Plain.Trace = false;
    Expected = Interp.run(Input, Plain).outputValues();
    if (Expected != std::vector<int64_t>{NativeCrc, int64_t(1) << RootGuard}) {
      Err = "fixed subject's crc/flags differ from the native loop";
      return false;
    }
    Root = Faulty->statementAtLine(2 + RootGuard);
    GuardIfs.clear();
    for (int G = 0; G < Guards; ++G)
      GuardIfs.push_back(Faulty->statementAtLine(Guards + 3 + 3 * G));
    if (!isValidId(Root) ||
        std::any_of(GuardIfs.begin(), GuardIfs.end(),
                    [](StmtId S) { return !isValidId(S); })) {
      Err = "no statement at a guard's lines";
      return false;
    }
    return true;
  }

  size_t size() const override { return 1; }
  std::string label(size_t) const override {
    return "guard" + std::to_string(RootGuard);
  }
  SessionResult run(size_t, const Sinks &S) override {
    return session(S, benchThreads());
  }
  void probe(size_t, std::map<std::string, double> &Out) override {
    probeLayers(FaultySource, Input, Expected, {},
                config(Sinks(), benchThreads()), Out);
  }
  std::string runInvariance() override {
    SessionResult Serial = session(Sinks(), 1);
    SessionResult Parallel = session(Sinks(), benchThreads());
    if (!Serial.Ok || !Parallel.Ok)
      return "thread-count check session failed: " + Serial.Problem +
             Parallel.Problem;
    if (Serial.Signature != Parallel.Signature)
      return "report differs at 1 and " + std::to_string(benchThreads()) +
             " threads";
    return "";
  }
  std::string describe() const override {
    return std::to_string(Guards) + " cold guards + " +
           std::to_string(LoopIters) + "-iteration crc loop, root guard " +
           std::to_string(RootGuard);
  }
};

//===----------------------------------------------------------------------===//
// fuzz: a seed range of generated omission faults
//===----------------------------------------------------------------------===//

class FuzzWorkload : public Workload {
  static constexpr uint64_t RangeSize = 10000;

  struct Case {
    uint64_t Seed = 0;
    bool Chained = false;
    std::string FaultySource;
    std::vector<int64_t> Input;
    std::vector<int64_t> Expected;
    uint32_t RootLine = 0;
  };
  std::vector<Case> Cases;
  size_t Masked = 0;
  uint64_t First = 0;

  static core::DebugSession::Config config(const Sinks &S) {
    core::DebugSession::Config C;
    C.Opt.Exec.Threads = benchThreads();
    C.Opt.Reuse.ChainDepth = 2;
    C.Opt.Exec.Stats = S.Stats;
    C.Opt.Exec.Tracer = S.Tracer;
    return C;
  }

public:
  bool setup(uint64_t Seed, std::string &Err) override {
    Cases.clear();
    Masked = 0;
    First = Seed * RangeSize;
    for (uint64_t S = First; S < First + RangeSize; ++S) {
      gen::RandomProgramGenerator Gen(S);
      // Alternate the two fault shapes: a chained omission no single
      // switch exposes, and the plain single-guard omission.
      Case C;
      C.Seed = S;
      C.Chained = S % 2 == 0;
      auto V = C.Chained ? Gen.generateChainedOmission() : Gen.generateOmission();
      DiagnosticEngine Diags;
      auto Fixed = lang::parseAndCheck(V.FixedSource, Diags);
      auto Faulty = lang::parseAndCheck(V.FaultySource, Diags);
      if (!Fixed || !Faulty) {
        Err = "seed " + std::to_string(S) + " does not parse: " + Diags.str();
        return false;
      }
      interp::Interpreter::Options Plain;
      Plain.Trace = false;
      analysis::StaticAnalysis FixedSA(*Fixed);
      C.Expected =
          interp::Interpreter(*Fixed, FixedSA).run(V.Input, Plain).outputValues();
      analysis::StaticAnalysis FaultySA(*Faulty);
      std::vector<int64_t> Observed =
          interp::Interpreter(*Faulty, FaultySA).run(V.Input, Plain).outputValues();
      // Masked: no printed value differs, so there is nothing to debug.
      size_t Common = std::min(Observed.size(), C.Expected.size());
      if (std::equal(Observed.begin(), Observed.begin() + Common,
                     C.Expected.begin())) {
        ++Masked;
        continue;
      }
      C.FaultySource = std::move(V.FaultySource);
      C.Input = std::move(V.Input);
      C.RootLine = V.RootCauseLine;
      Cases.push_back(std::move(C));
    }
    if (Cases.empty()) {
      Err = "every seed is masked";
      return false;
    }
    return true;
  }

  size_t size() const override { return Cases.size(); }
  std::string label(size_t I) const override {
    return "seed " + std::to_string(Cases[I].Seed);
  }

  SessionResult run(size_t I, const Sinks &S) override {
    const Case &C = Cases[I];
    SessionResult Out;
    DiagnosticEngine Diags;
    auto Prog = lang::parseAndCheck(C.FaultySource, Diags);
    if (!Prog) {
      Out.fail("does not parse");
      return Out;
    }
    core::DebugSession Session(*Prog, C.Input, C.Expected, {}, config(S));
    if (!Session.hasFailure()) {
      Out.fail("no failure observed");
      return Out;
    }
    StmtId Root = Prog->statementAtLine(C.RootLine);
    if (!isValidId(Root)) {
      Out.fail("no statement on the generator's root line");
      return Out;
    }
    bool DSHasRoot = Session.dynamicSlice().containsStmt(Session.trace(), Root);
    bool RSHasRoot =
        Session.relevantSlice().Slice.containsStmt(Session.trace(), Root);
    CountingRootOracle Oracle(Root);
    ProcUsage U0 = ProcUsage::now();
    Clock::time_point T0 = Clock::now();
    core::LocateReport R = Session.locate(Oracle);
    Out.LocateMs = msSince(T0);
    Out.LocateCpuMs = ProcUsage::now().CpuMs - U0.CpuMs;
    Out.OracleQueries = static_cast<double>(Oracle.Queries);
    Out.Verifications = R.Verifications;
    Out.Reexecutions = R.Reexecutions;
    Out.Signature = reportSignature(R) + edgeSignature(Session.graph()) +
                    " ds=" + std::to_string(DSHasRoot) +
                    " rs=" + std::to_string(RSHasRoot);

    if (!R.RootCauseFound)
      Out.fail("root cause not located");
    if (!C.Chained && DSHasRoot)
      Out.fail("DS contains the root cause");
    if (!C.Chained && !RSHasRoot)
      Out.fail("RS misses the root cause");
    return Out;
  }

  void probe(size_t I, std::map<std::string, double> &Out) override {
    const Case &C = Cases[I];
    probeLayers(C.FaultySource, C.Input, C.Expected, {}, config(Sinks()), Out);
  }

  std::string describe() const override {
    return "seeds [" + std::to_string(First) + ", " +
           std::to_string(First + RangeSize) + "): " +
           std::to_string(Cases.size()) + " sessions, " +
           std::to_string(Masked) + " masked seeds dropped";
  }
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "table3")
    return std::make_unique<Table3Workload>();
  if (Name == "longtrace")
    return std::make_unique<LongtraceWorkload>();
  if (Name == "fuzz")
    return std::make_unique<FuzzWorkload>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Runs
//===----------------------------------------------------------------------===//

/// Set-up is timed in two windows, before the timed loop and after it,
/// each repeating set-up until it has run SetupMinReps times and for
/// SetupWindowS seconds; the median of all samples is reported. Samples
/// from both ends of the run keep a slow phase of the host at the start
/// of a process from setting the figure. Set-up is not repeated inside
/// the loop: its allocations would fragment the heap the sessions reuse
/// and change what they measure.
constexpr size_t SetupMinReps = 2;
constexpr double SetupWindowS = 0.5;

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
};

struct Outcome {
  bool Correct = true;
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<Metric> Metrics;
};

void printResult(const Outcome &O) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              O.Correct ? "true" : "false", O.Attempted, O.Failed);
  for (size_t I = 0; I < O.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", O.Metrics[I].Name.c_str(), O.Metrics[I].Value,
                O.Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

void reportFailure(const Workload &W, size_t I, const SessionResult &R,
                   size_t &Printed) {
  if (Printed++ < 20)
    std::printf("FAILED %s: %s\n", W.label(I).c_str(), R.Problem.c_str());
}

/// One set-up window; appends each set-up's time to \p Times.
bool timedSetups(Workload &W, uint64_t Seed, std::vector<double> &Times) {
  double WindowS = 0;
  for (size_t N = 0; N < SetupMinReps || WindowS < SetupWindowS; ++N) {
    std::string Err;
    Clock::time_point T0 = Clock::now();
    if (!W.setup(Seed, Err)) {
      std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
      return false;
    }
    Times.push_back(msSince(T0) / 1e3);
    WindowS += Times.back();
  }
  return true;
}

/// End-to-end run: whole rounds over every session, no sinks attached,
/// until \p Seconds have passed.
int runMeasured(Workload &W, const std::string &Name, uint64_t Seed,
                double Seconds) {
  std::vector<double> SetupTimes;
  if (!timedSetups(W, Seed, SetupTimes))
    return 1;
  std::printf("%s: %s; %u verification threads\n", Name.c_str(),
              W.describe().c_str(), benchThreads());

  Outcome O;
  size_t Printed = 0;
  std::vector<double> SessionMs;
  std::vector<std::vector<double>> PerSession(W.size());
  ProcUsage U0 = ProcUsage::now();
  Clock::time_point T0 = Clock::now();
  do {
    for (size_t I = 0; I < W.size(); ++I) {
      Clock::time_point S0 = Clock::now();
      SessionResult R = W.run(I, Sinks());
      SessionMs.push_back(msSince(S0));
      PerSession[I].push_back(SessionMs.back());
      ++O.Attempted;
      if (!R.Ok) {
        ++O.Failed;
        O.Correct = false;
        reportFailure(W, I, R, Printed);
      }
    }
  } while (msSince(T0) < Seconds * 1e3);
  double WallS = msSince(T0) / 1e3;
  double CpuMs = ProcUsage::now().CpuMs - U0.CpuMs;
  if (!timedSetups(W, Seed, SetupTimes))
    return 1;

  double N = static_cast<double>(SessionMs.size());
  O.Metrics = {{"sessions_per_s", "1/s", N / WallS},
               {"session_p50_ms", "ms", median(SessionMs)},
               {"cpu_per_session_ms", "ms", CpuMs / N},
               {"peak_rss_mb", "MB", peakRssMb()},
               {"setup_s", "s", median(SetupTimes)}};
  std::printf("sessions attempted %zu, failed %zu, rounds %zu, wall %.3f s, "
              "%zu set-ups\n",
              O.Attempted, O.Failed, SessionMs.size() / W.size(), WallS,
              SetupTimes.size());
  if (W.size() <= 16)
    for (size_t I = 0; I < W.size(); ++I)
      std::printf("  %-20s median %10.3f ms over %zu sessions\n",
                  W.label(I).c_str(), median(PerSession[I]),
                  PerSession[I].size());
  for (const Metric &M : O.Metrics)
    std::printf("  %-20s %12.4f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  // A tail is reported only where at least ten samples lie beyond it.
  if (SessionMs.size() >= 1000)
    std::printf("  %-20s %12.4f ms (%zu sessions)\n", "session_p99_ms",
                percentile(SessionMs, 99), SessionMs.size());
  printResult(O);
  return 0;
}

/// The per-layer metrics of the traced run, in report order.
const std::vector<std::pair<const char *, const char *>> &layerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"lang.parse_ms", "ms"},          {"analysis.static_ms", "ms"},
      {"core.session_build_ms", "ms"},  {"interp.profile_ms", "ms"},
      {"interp.trace_ms", "ms"},        {"interp.plain_ms", "ms"},
      {"interp.steps", "steps"},        {"interp.steps_per_s", "1/s"},
      {"interp.interpreted_steps", "steps"},
      {"interp.resumed_runs", "count"}, {"interp.minflt", "count"},
      {"ddg.graph_ms", "ms"},           {"slicing.ds_ms", "ms"},
      {"slicing.rs_ms", "ms"},          {"slicing.ps_ms", "ms"},
      {"slicing.prune_ms", "ms"},       {"slicing.prune_rounds", "count"},
      {"slicing.oracle_queries", "count"},
      {"align.queries", "count"},       {"align.regions_walked", "count"},
      {"core.locate_ms", "ms"},         {"core.locate_cpu_ms", "ms"},
      {"core.verify_ms", "ms"},         {"core.reexec_ms", "ms"},
      {"core.verifications", "count"},  {"core.reexecutions", "count"},
      {"core.ckpt_hits", "count"},      {"core.chain_runs", "count"},
  };
  return M;
}

/// Paper Table 4 row for one table3 session, from its phase-B spans.
struct Table4Row {
  std::string Fault;
  double PlainMs, GraphMs, VerifMs;
  SpanTotals Spans; // whole session, both phases
};

/// Start of phase B: the second "profile" span (each phase's DebugSession
/// profiles once).
uint64_t phaseBStart(const std::vector<support::EventTracer::Event> &Ev) {
  std::vector<uint64_t> Starts;
  for (const auto &E : Ev)
    if (E.Name == "profile")
      Starts.push_back(E.StartNs);
  std::sort(Starts.begin(), Starts.end());
  return Starts.size() >= 2 ? Starts[1] : 0;
}

/// Traced run: every session twice (no sinks, then fresh sinks), reports
/// compared, per-layer numbers taken from the sinks and the probes.
/// \p Smoke runs one round of the workload's smoke sessions and prints
/// no result line. Returns 1 when set-up fails, 2 when a check fails.
int runTraced(Workload &W, const std::string &Name, uint64_t Seed,
              double Seconds, const std::string &TraceDir, bool Smoke) {
  std::vector<double> SetupTimes;
  if (!timedSetups(W, Seed, SetupTimes))
    return 1;
  std::printf("%s (traced): %s; %u verification threads\n", Name.c_str(),
              W.describe().c_str(), benchThreads());
  std::vector<size_t> Order;
  if (Smoke)
    Order = W.smokeSessions();
  else
    for (size_t I = 0; I < W.size(); ++I)
      Order.push_back(I);

  Outcome O;
  size_t Printed = 0;
  std::map<std::string, std::vector<double>> Layer;
  std::vector<double> UntracedMs, TracedMs, Coverage;
  std::vector<Table4Row> Table4;
  bool TraceWritten = TraceDir.empty();

  Clock::time_point T0 = Clock::now();
  size_t Rounds = 0;
  do {
    for (size_t I : Order) {
      Clock::time_point S0 = Clock::now();
      SessionResult Ref = W.run(I, Sinks());
      UntracedMs.push_back(msSince(S0));

      support::StatsRegistry Reg;
      support::EventTracer Tracer;
      ProcUsage U0 = ProcUsage::now();
      S0 = Clock::now();
      SessionResult R = W.run(I, {&Reg, &Tracer});
      double WallMs = msSince(S0);
      ProcUsage U1 = ProcUsage::now();
      TracedMs.push_back(WallMs);

      ++O.Attempted;
      // A failed output check makes the run incorrect. A report that differs
      // only because a sink is attached fails the session, not its outputs.
      if (!Ref.Ok)
        R.fail(Ref.Problem);
      if (!R.Ok)
        O.Correct = false;
      else if (R.Signature != Ref.Signature)
        R.fail("LocateReport differs with a fresh sink attached:\n  none:  " +
               Ref.Signature + "\n  fresh: " + R.Signature);
      if (!R.Ok) {
        ++O.Failed;
        reportFailure(W, I, R, Printed);
      }

      std::vector<support::EventTracer::Event> Events = Tracer.events();
      SpanTotals ST = attribute(Events);
      support::StatsSnapshot Snap = Reg.snapshot();
      auto Counter = [&](const char *K) -> double {
        auto It = Snap.Counters.find(K);
        return It == Snap.Counters.end() ? 0 : double(It->second);
      };
      std::map<std::string, double> S;
      W.probe(I, S);
      S["interp.profile_ms"] = get(ST.SelfMs, "profile");
      S["interp.trace_ms"] = get(ST.SelfMs, "interpret");
      size_t Interprets = 0;
      for (const auto &E : Events)
        Interprets += E.Name == "interpret";
      S["interp.steps_per_s"] =
          S["interp.trace_ms"] > 0
              ? S["interp.steps"] * Interprets / (S["interp.trace_ms"] / 1e3)
              : 0;
      S["interp.interpreted_steps"] = Counter("interp.steps");
      S["interp.resumed_runs"] = Counter("interp.resumed_runs");
      S["interp.minflt"] = double(U1.MinFlt - U0.MinFlt);
      S["ddg.graph_ms"] = get(ST.SelfMs, "graph");
      S["slicing.prune_ms"] = get(ST.SelfMs, "prune");
      S["slicing.prune_rounds"] = Counter("slicing.prune_rounds");
      S["slicing.oracle_queries"] = R.OracleQueries >= 0
                                        ? R.OracleQueries
                                        : Counter("slicing.oracle_queries");
      S["align.queries"] = Counter("align.queries");
      S["align.regions_walked"] = Counter("align.regions_walked");
      // Where the benchmark does not call locate() itself (table3's
      // FaultRunner), the locate spans give its wall time and the whole
      // session's CPU stands in for its CPU.
      S["core.locate_ms"] = R.LocateMs >= 0 ? R.LocateMs : get(ST.TotalMs, "locate");
      S["core.locate_cpu_ms"] =
          R.LocateCpuMs >= 0 ? R.LocateCpuMs : U1.CpuMs - U0.CpuMs;
      S["core.verify_ms"] = ST.RoundExclPruneMs;
      auto Timer = Snap.Timers.find("verify.reexec_time");
      S["core.reexec_ms"] =
          Timer == Snap.Timers.end() ? 0 : Timer->second.Seconds * 1e3;
      S["core.verifications"] = double(Ref.Verifications);
      S["core.reexecutions"] = double(Ref.Reexecutions);
      S["core.ckpt_hits"] = Counter("verify.ckpt.hits") +
                            Counter("verify.ckpt.shared_hits") +
                            Counter("verify.ckpt.switched_hits");
      S["core.chain_runs"] = Counter("verify.chain.runs");
      for (const auto &[K, V] : S)
        Layer[K].push_back(V);

      double Covered = get(ST.SelfMs, "profile") + get(ST.SelfMs, "interpret") +
                       get(ST.SelfMs, "graph") +
                       get(ST.SelfMs, "dynamic_slice") +
                       get(ST.SelfMs, "relevant_slice") +
                       get(ST.SelfMs, "prune") + ST.RoundExclPruneMs;
      Coverage.push_back(WallMs > 0 ? Covered / WallMs : 0);

      if (Name == "table3" && Rounds == 0) {
        SpanTotals B = attribute(Events, phaseBStart(Events));
        Table4.push_back({W.label(I), S["interp.plain_ms"],
                          get(B.SelfMs, "interpret") + get(B.SelfMs, "graph"),
                          get(B.TotalMs, "locate"), ST});
      }
      if (!TraceWritten) {
        std::string Path = TraceDir + "/" + Name + ".json";
        if (Tracer.writeFile(Path))
          std::printf("Chrome trace of %s written to %s\n",
                      W.label(I).c_str(), Path.c_str());
        TraceWritten = true;
      }
    }
    ++Rounds;
  } while (!Smoke && msSince(T0) < Seconds * 1e3);

  std::string Inv = W.runInvariance();
  if (!Inv.empty()) {
    O.Correct = false;
    std::printf("INVARIANCE FAILED: %s\n", Inv.c_str());
  }

  std::printf("sessions attempted %zu, failed %zu, rounds %zu\n", O.Attempted,
              O.Failed, Rounds);
  if (!Table4.empty()) {
    std::printf("Table 4 (phase B, ms) and per-layer self time (both phases, "
                "ms):\n  %-12s %9s %9s %9s | %8s %8s %8s %8s %8s %9s %9s\n",
                "fault", "Plain", "Graph", "Verif", "profile", "trace",
                "graph", "ds", "rs", "prune", "verify");
    for (const Table4Row &T : Table4)
      std::printf("  %-12s %9.3f %9.3f %9.3f | %8.3f %8.3f %8.3f %8.3f %8.3f "
                  "%9.3f %9.3f\n",
                  T.Fault.c_str(), T.PlainMs, T.GraphMs, T.VerifMs,
                  get(T.Spans.SelfMs, "profile"),
                  get(T.Spans.SelfMs, "interpret"),
                  get(T.Spans.SelfMs, "graph"),
                  get(T.Spans.SelfMs, "dynamic_slice"),
                  get(T.Spans.SelfMs, "relevant_slice"),
                  get(T.Spans.SelfMs, "prune"), T.Spans.RoundExclPruneMs);
  }
  double Untraced = median(UntracedMs), Traced = median(TracedMs);
  std::printf("per-layer share of session wall time (median): %.1f %%\n",
              100 * median(Coverage));
  std::printf("tracing overhead: traced / untraced session_p50_ms = %.4f / "
              "%.4f = %.3f\n",
              Traced, Untraced, Untraced > 0 ? Traced / Untraced : 0);
  for (const auto &[Key, Unit] : layerMetrics()) {
    O.Metrics.push_back({Key, Unit, median(Layer[Key])});
    std::printf("  %-26s %14.4f %s\n", Key, O.Metrics.back().Value, Unit);
  }
  if (!Smoke)
    printResult(O);
  return O.Correct && O.Failed == 0 ? 0 : 2;
}

int smoke() {
  int Status = 0;
  for (const char *Name : {"table3", "longtrace", "fuzz"}) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    int S = runTraced(*W, Name, /*Seed=*/1, 0, "", /*Smoke=*/true);
    std::printf("smoke %s: %s\n", Name, S == 0 ? "ok" : "FAILED");
    Status |= S;
  }
  return Status;
}

int usage() {
  std::fprintf(stderr,
               "usage: sessionbench --workload table3|longtrace|fuzz "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n"
               "       sessionbench --smoke\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name, TraceDir;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false, Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--smoke")
      Smoke = true;
    else if (A == "--workload" && (V = Value()))
      Name = V;
    else if (A == "--seed" && (V = Value()))
      Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds" && (V = Value()))
      Seconds = std::strtod(V, nullptr);
    else if (A == "--trace" && (V = Value()))
      Trace = std::strcmp(V, "0") != 0;
    else if (A == "--trace-dir" && (V = Value()))
      TraceDir = V;
    else
      return usage();
  }
  if (Smoke)
    return Name.empty() ? smoke() : usage();
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W)
    return usage();
  if (!Trace)
    return runMeasured(*W, Name, Seed, Seconds);
  // Failed sessions are counted in the result line; only a failed set-up
  // (status 1, no result printed) fails the run.
  return runTraced(*W, Name, Seed, Seconds, TraceDir, /*Smoke=*/false) == 1;
}
