//! Quickstart: run one kernel on one simulated machine and inspect the
//! result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use triarch_kernels::{CornerTurnWorkload, Probe, SignalMachine};
use triarch_viram::Viram;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 256x256 corner turn (the paper uses 1024x1024; see the
    // radar_pipeline example for the full reproduction).
    let workload = CornerTurnWorkload::with_dims(256, 256, 42)?;

    let mut machine = Viram::new()?;
    println!("machine: {}", machine.info());

    let run = machine.run_with((&workload).into(), Probe::default())?;
    println!("\ncorner turn on VIRAM:");
    println!("{run}");

    println!(
        "\nsustained bandwidth: {:.2} words/cycle (peak on-chip: {} words/cycle)",
        run.mem_words as f64 / run.cycles.get() as f64,
        machine.info().throughput.onchip_words_per_cycle,
    );
    Ok(())
}
