//! The interface every simulated architecture implements.

use std::fmt;

use triarch_simcore::faults::{FaultHook, NoFaults};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{CycleBudget, KernelRun, MachineInfo, SimError};

use crate::beam_steering::BeamSteeringWorkload;
use crate::corner_turn::CornerTurnWorkload;
use crate::cslc::CslcWorkload;

/// The three kernels of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// 1024×1024 matrix transpose (Section 3.1).
    CornerTurn,
    /// Coherent side-lobe canceller (Section 3.2).
    Cslc,
    /// Beam steering (Section 3.3).
    BeamSteering,
}

impl Kernel {
    /// All kernels in the paper's presentation order.
    pub const ALL: [Kernel; 3] = [Kernel::CornerTurn, Kernel::Cslc, Kernel::BeamSteering];

    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::CornerTurn => "Corner Turn",
            Kernel::Cslc => "CSLC",
            Kernel::BeamSteering => "Beam Steering",
        }
    }

    /// Parses a display name back into the kernel (the inverse of
    /// [`Kernel::name`], matched case-insensitively). `None` for
    /// anything that is not one of the study's three kernels.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A borrowed workload for one kernel — the unit of work a machine runs.
///
/// Build one from a [`WorkloadSet`] with [`WorkloadSet::get`], or from a
/// single custom-sized workload with `From`/`into()`.
#[derive(Debug, Clone, Copy)]
pub enum KernelInput<'a> {
    /// A corner-turn matrix.
    CornerTurn(&'a CornerTurnWorkload),
    /// CSLC channels and weights.
    Cslc(&'a CslcWorkload),
    /// Beam-steering tables.
    BeamSteering(&'a BeamSteeringWorkload),
}

impl<'a> From<&'a CornerTurnWorkload> for KernelInput<'a> {
    fn from(workload: &'a CornerTurnWorkload) -> Self {
        KernelInput::CornerTurn(workload)
    }
}

impl<'a> From<&'a CslcWorkload> for KernelInput<'a> {
    fn from(workload: &'a CslcWorkload) -> Self {
        KernelInput::Cslc(workload)
    }
}

impl<'a> From<&'a BeamSteeringWorkload> for KernelInput<'a> {
    fn from(workload: &'a BeamSteeringWorkload) -> Self {
        KernelInput::BeamSteering(workload)
    }
}

/// What observes a run: an optional trace sink, which receives the run's
/// cycle-attribution events, and an optional fault hook, consulted
/// wherever simulated state crosses a fault surface.
/// [`Probe::default`] attaches neither.
#[derive(Default)]
pub struct Probe<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    faults: Option<&'a mut dyn FaultHook>,
}

impl<'a> Probe<'a> {
    /// Attaches a trace sink.
    #[must_use]
    pub fn with_sink(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a fault hook.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a mut dyn FaultHook) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Runs `program` on `input` with this probe attached.
    ///
    /// Each (sink, faults) state selects one static instantiation of the
    /// program: a missing sink becomes [`NullSink`] and a missing hook
    /// [`NoFaults`], so an unobserved run compiles its instrumentation
    /// away.
    ///
    /// # Errors
    ///
    /// Propagates the program's error.
    pub fn run<P: Program + ?Sized>(
        self,
        program: &P,
        input: KernelInput<'_>,
    ) -> Result<KernelRun, SimError> {
        match (self.sink, self.faults) {
            (None, None) => program.execute(input, NullSink, NoFaults),
            (Some(sink), None) => program.execute(input, sink, NoFaults),
            (None, Some(faults)) => program.execute(input, NullSink, faults),
            (Some(sink), Some(faults)) => program.execute(input, sink, faults),
        }
    }
}

/// A machine's kernel programs, generic over the trace sink and fault
/// hook so [`Probe::run`] can dispatch statically.
pub trait Program {
    /// Runs the kernel `input` names, emitting trace events into `sink`
    /// and consulting `faults` at every fault surface.
    ///
    /// Implementations apply the hook's effects to real simulated data,
    /// charge its ECC/retry cycle costs into the breakdown, and convert
    /// a transfer failure into [`SimError::DetectedFault`]. The counted
    /// spans emitted into `sink` tile the reported
    /// [`KernelRun::breakdown`].
    ///
    /// # Errors
    ///
    /// [`SimError`] when the workload shape is unsupported by this
    /// machine's mapping or exceeds a hardware resource, plus
    /// [`SimError::DetectedFault`] and [`SimError::BudgetExceeded`].
    fn execute<S: TraceSink, F: FaultHook>(
        &self,
        input: KernelInput<'_>,
        sink: S,
        faults: F,
    ) -> Result<KernelRun, SimError>;
}

/// A simulated machine that can run the study's three kernels.
///
/// Implementations must be *data-accurate*: each run computes the actual
/// kernel output on simulated hardware and reports how it compared with
/// the workload's reference output in [`KernelRun::verification`].
pub trait SignalMachine {
    /// Static machine description (paper Table 2 row).
    fn info(&self) -> &MachineInfo;

    /// Installs a watchdog cycle budget for subsequent runs: once a run's
    /// simulated activity passes the budget, the engine aborts with
    /// [`SimError::BudgetExceeded`] instead of running unboundedly. The
    /// default budget is [`CycleBudget::UNLIMITED`].
    fn set_cycle_budget(&mut self, budget: CycleBudget);

    /// Runs one kernel with `probe` attached (see [`Program::execute`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the workload shape is unsupported by this
    /// machine's mapping or exceeds a hardware resource, plus
    /// [`SimError::DetectedFault`] and [`SimError::BudgetExceeded`].
    fn run_with(&mut self, input: KernelInput<'_>, probe: Probe<'_>)
        -> Result<KernelRun, SimError>;

    /// Runs `kernel` on its workload from `workloads`, unobserved.
    ///
    /// # Errors
    ///
    /// Same as [`run_with`](Self::run_with).
    fn run(&mut self, kernel: Kernel, workloads: &WorkloadSet) -> Result<KernelRun, SimError> {
        self.run_with(workloads.get(kernel), Probe::default())
    }

    /// Runs `kernel` on its workload from `workloads` with `sink`
    /// attached.
    ///
    /// # Errors
    ///
    /// Same as [`run_with`](Self::run_with).
    fn run_traced(
        &mut self,
        kernel: Kernel,
        workloads: &WorkloadSet,
        sink: &mut dyn TraceSink,
    ) -> Result<KernelRun, SimError> {
        self.run_with(workloads.get(kernel), Probe::default().with_sink(sink))
    }
}

/// One instance of every kernel workload, shared across machines so all
/// architectures process identical data.
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    /// The corner-turn matrix.
    pub corner_turn: CornerTurnWorkload,
    /// The CSLC channels and weights.
    pub cslc: CslcWorkload,
    /// The beam-steering tables.
    pub beam_steering: BeamSteeringWorkload,
}

impl WorkloadSet {
    /// Builds the paper-sized workload set from a seed.
    ///
    /// # Errors
    ///
    /// Never fails for the paper parameters.
    pub fn paper(seed: u64) -> Result<Self, SimError> {
        Ok(WorkloadSet {
            corner_turn: CornerTurnWorkload::paper(seed)?,
            cslc: CslcWorkload::paper(seed.wrapping_add(1))?,
            beam_steering: BeamSteeringWorkload::paper(seed.wrapping_add(2))?,
        })
    }

    /// Builds a reduced workload set for fast tests: a 64×64 corner turn,
    /// the small CSLC configuration, and a 128-element beam steer.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in small parameters.
    pub fn small(seed: u64) -> Result<Self, SimError> {
        Ok(WorkloadSet {
            corner_turn: CornerTurnWorkload::with_dims(64, 64, seed)?,
            cslc: CslcWorkload::new(crate::cslc::CslcConfig::small(), seed.wrapping_add(1))?,
            beam_steering: BeamSteeringWorkload::new(128, 4, 2, seed.wrapping_add(2))?,
        })
    }

    /// The workload `kernel` runs on.
    #[must_use]
    pub fn get(&self, kernel: Kernel) -> KernelInput<'_> {
        match kernel {
            Kernel::CornerTurn => KernelInput::CornerTurn(&self.corner_turn),
            Kernel::Cslc => KernelInput::Cslc(&self.cslc),
            Kernel::BeamSteering => KernelInput::BeamSteering(&self.beam_steering),
        }
    }
}

#[cfg(test)]
mod tests {
    use triarch_simcore::faults::{FaultDomain, StuckFault, TransferFaults};
    use triarch_simcore::metrics::MetricsReport;
    use triarch_simcore::trace::TraceEvent;
    use triarch_simcore::{CycleBreakdown, Cycles, ThroughputModel, Verification};

    use super::*;

    /// A stand-in machine: charges 1, 2 or 3 "compute" cycles for corner
    /// turn, CSLC or beam steering, emits them as one counted span, and
    /// consults an enabled fault hook once, charging its ECC cycles.
    struct Echo {
        info: MachineInfo,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                info: MachineInfo {
                    name: "Echo",
                    clock: triarch_simcore::ClockFrequency::from_mhz(100.0),
                    alu_count: 1,
                    peak_gflops: 0.1,
                    throughput: ThroughputModel::viram(),
                },
            }
        }
    }

    impl Program for Echo {
        fn execute<S: TraceSink, F: FaultHook>(
            &self,
            input: KernelInput<'_>,
            mut sink: S,
            mut faults: F,
        ) -> Result<KernelRun, SimError> {
            let compute = match input {
                KernelInput::CornerTurn(_) => 1,
                KernelInput::Cslc(_) => 2,
                KernelInput::BeamSteering(_) => 3,
            };
            let mut breakdown = CycleBreakdown::new();
            breakdown.charge("compute", Cycles::new(compute));
            sink.span("echo", "compute", "kernel", 0, compute);
            if faults.is_enabled() {
                let effects = faults.transfer(FaultDomain::Dram, 0, 1);
                if let Some(what) = effects.failure {
                    return Err(SimError::detected_fault(what));
                }
                breakdown.charge("ecc", Cycles::new(effects.ecc_cycles));
                sink.span("echo", "ecc", "check", compute, effects.ecc_cycles);
            }
            Ok(KernelRun {
                cycles: breakdown.total(),
                breakdown,
                ops_executed: 0,
                mem_words: 0,
                verification: Verification::BitExact,
                metrics: MetricsReport::new(),
            })
        }
    }

    impl SignalMachine for Echo {
        fn info(&self) -> &MachineInfo {
            &self.info
        }

        fn set_cycle_budget(&mut self, _budget: CycleBudget) {}

        fn run_with(
            &mut self,
            input: KernelInput<'_>,
            probe: Probe<'_>,
        ) -> Result<KernelRun, SimError> {
            probe.run(self, input)
        }
    }

    #[derive(Default)]
    struct Events(Vec<TraceEvent>);

    impl TraceSink for Events {
        fn record(&mut self, event: TraceEvent) {
            self.0.push(event);
        }
    }

    impl Events {
        fn counted(&self, category: &str) -> u64 {
            self.0
                .iter()
                .map(|e| match e {
                    TraceEvent::Span { category: c, dur, counted: true, .. } if *c == category => {
                        *dur
                    }
                    _ => 0,
                })
                .sum()
        }
    }

    /// Charges 5 ECC cycles per transfer, or fails it outright.
    struct Ecc {
        consulted: u32,
        fail: bool,
    }

    impl Ecc {
        fn new(fail: bool) -> Self {
            Ecc { consulted: 0, fail }
        }
    }

    impl FaultHook for Ecc {
        fn transfer(
            &mut self,
            _domain: FaultDomain,
            _start: usize,
            _words: usize,
        ) -> TransferFaults {
            self.consulted += 1;
            TransferFaults {
                ecc_cycles: 5,
                failure: self.fail.then(|| "double-bit error".to_string()),
                ..TransferFaults::default()
            }
        }

        fn stuck(&mut self, _domain: FaultDomain) -> Option<StuckFault> {
            None
        }
    }

    #[test]
    fn kernel_names_match_paper_tables() {
        assert_eq!(Kernel::CornerTurn.name(), "Corner Turn");
        assert_eq!(Kernel::Cslc.name(), "CSLC");
        assert_eq!(Kernel::BeamSteering.name(), "Beam Steering");
        assert_eq!(Kernel::ALL.len(), 3);
        assert_eq!(Kernel::CornerTurn.to_string(), "Corner Turn");
    }

    #[test]
    fn workload_sets_build() {
        let small = WorkloadSet::small(3).unwrap();
        assert_eq!(small.corner_turn.rows(), 64);
        assert_eq!(small.beam_steering.directions(), 4);
        // The paper set is large; just verify its shape without running it.
        let paper = WorkloadSet::paper(3).unwrap();
        assert_eq!(paper.corner_turn.rows(), 1024);
        assert_eq!(paper.cslc.config().subbands, 73);
        assert_eq!(paper.beam_steering.outputs(), 51_456);
    }

    #[test]
    fn get_borrows_the_kernels_workload() {
        let small = WorkloadSet::small(3).unwrap();
        assert!(
            matches!(small.get(Kernel::CornerTurn), KernelInput::CornerTurn(w) if w.rows() == 64)
        );
        assert!(matches!(small.get(Kernel::Cslc), KernelInput::Cslc(_)));
        assert!(matches!(small.get(Kernel::BeamSteering), KernelInput::BeamSteering(_)));
    }

    #[test]
    fn default_probe_attaches_neither() {
        let small = WorkloadSet::small(3).unwrap();
        let run = Probe::default().run(&Echo::new(), small.get(Kernel::Cslc)).unwrap();
        assert_eq!(run.cycles, Cycles::new(2));
        assert_eq!(run.breakdown.get("ecc"), Cycles::ZERO);
    }

    #[test]
    fn probe_sink_receives_the_counted_spans() {
        let small = WorkloadSet::small(3).unwrap();
        let mut events = Events::default();
        let run = Probe::default()
            .with_sink(&mut events)
            .run(&Echo::new(), small.get(Kernel::BeamSteering))
            .unwrap();
        assert_eq!(run.cycles, Cycles::new(3));
        assert_eq!(events.0.len(), 1);
        assert_eq!(events.counted("compute"), 3);
    }

    #[test]
    fn probe_fault_hook_is_consulted_without_a_sink() {
        let small = WorkloadSet::small(3).unwrap();
        let mut hook = Ecc::new(false);
        let run = Probe::default()
            .with_faults(&mut hook)
            .run(&Echo::new(), small.get(Kernel::CornerTurn))
            .unwrap();
        assert_eq!(hook.consulted, 1);
        assert_eq!(run.cycles, Cycles::new(6));
        assert_eq!(run.breakdown.get("ecc"), Cycles::new(5));
    }

    #[test]
    fn probe_with_sink_and_faults_traces_the_fault_cycles() {
        let small = WorkloadSet::small(3).unwrap();
        let mut events = Events::default();
        let mut hook = Ecc::new(false);
        let run = Probe::default()
            .with_sink(&mut events)
            .with_faults(&mut hook)
            .run(&Echo::new(), small.get(Kernel::Cslc))
            .unwrap();
        assert_eq!(hook.consulted, 1);
        assert_eq!(run.cycles, Cycles::new(7));
        assert_eq!(events.counted("compute") + events.counted("ecc"), run.cycles.get());
        assert_eq!(events.counted("ecc"), run.breakdown.get("ecc").get());
    }

    #[test]
    fn probe_propagates_a_detected_fault() {
        let small = WorkloadSet::small(3).unwrap();
        let mut hook = Ecc::new(true);
        let err = Probe::default()
            .with_faults(&mut hook)
            .run(&Echo::new(), small.get(Kernel::CornerTurn))
            .unwrap_err();
        assert!(err.is_detected_abort(), "{err}");
    }

    #[test]
    fn kernel_inputs_convert_from_single_workloads() {
        let small = WorkloadSet::small(3).unwrap();
        assert!(
            matches!(KernelInput::from(&small.corner_turn), KernelInput::CornerTurn(w) if std::ptr::eq(w, &small.corner_turn))
        );
        assert!(
            matches!(KernelInput::from(&small.cslc), KernelInput::Cslc(w) if std::ptr::eq(w, &small.cslc))
        );
        assert!(matches!(
            KernelInput::from(&small.beam_steering),
            KernelInput::BeamSteering(w) if std::ptr::eq(w, &small.beam_steering)
        ));
    }

    #[test]
    fn provided_runs_forward_to_run_with() {
        let small = WorkloadSet::small(3).unwrap();
        let mut machine = Echo::new();
        for kernel in Kernel::ALL {
            let plain = machine.run(kernel, &small).unwrap();
            let mut events = Events::default();
            let traced = machine.run_traced(kernel, &small, &mut events).unwrap();
            let direct = machine.run_with(small.get(kernel), Probe::default()).unwrap();
            assert_eq!(plain.cycles, direct.cycles, "{kernel}");
            assert_eq!(traced.cycles, direct.cycles, "{kernel}");
            assert_eq!(events.counted("compute"), direct.cycles.get(), "{kernel}");
        }
    }
}
