//! The paper's motivating scenario (Figure 1): a device driver with a
//! per-device lock array, analyzed by the flow-sensitive lock checker
//! under all three Section 7 modes.
//!
//! Run with `cargo run --example locking_driver`.

use localias::ast::parse_module;
use localias::core::SharedAnalysis;
use localias::cqual::{check_modes, MODES};

const DRIVER: &str = r#"
// A miniature network driver: one lock per device.
struct dev { lock mu; int pending; };
struct dev devs[8];
lock registry_mu;
int registered;

extern void hw_kick();
extern void hw_drain();

// Device-local work: needs the device's own lock.
void service(int i) {
    struct dev *d = &devs[i];
    spin_lock(&d->mu);
    d->pending = 0;
    hw_kick();
    spin_unlock(&d->mu);
}

// Global registry: a single scalar lock, no aliasing trouble.
void register_dev() {
    spin_lock(&registry_mu);
    registered = registered + 1;
    spin_unlock(&registry_mu);
}

// Periodic flush over all devices.
void flush_all(int n) {
    for (int i = 0; i < n; i = i + 1) {
        spin_lock(&devs[i].mu);
        hw_drain();
        spin_unlock(&devs[i].mu);
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = parse_module("minidriver", DRIVER)?;

    let reports = check_modes(&mut SharedAnalysis::new(&m)).0;
    for (mode, report) in MODES.iter().zip(&reports) {
        println!("{mode:?}: {report}");
        for e in &report.errors {
            println!("    {e}");
        }
    }

    let [weak, confined, strong] = reports;
    println!(
        "\nconfine inference eliminated {} of {} spurious errors",
        weak.error_count() - confined.error_count(),
        weak.error_count() - strong.error_count(),
    );
    assert_eq!(confined.error_count(), strong.error_count());
    Ok(())
}
