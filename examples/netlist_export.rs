//! SPICE netlist export: write HSPICE-dialect decks for the PEEC and
//! wVPEC models of the same bus, and compare their sizes (the Fig. 8(b)
//! model-size metric).
//!
//! Run with: `cargo run --release --example netlist_export`
//! Decks are written to `target/netlists/`.

use std::fs;
use vpec::circuit::spice_out::to_classic_spice;
use vpec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = Experiment::new(
        BusSpec::new(8).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );

    let out_dir = std::path::Path::new("target/netlists");
    fs::create_dir_all(out_dir)?;

    let mut sizes = Vec::new();
    for kind in [
        ModelKind::Peec,
        ModelKind::VpecFull,
        ModelKind::WVpecGeometric { b: 4 },
    ] {
        let built = exp.build(kind)?;
        let deck = to_classic_spice(
            &built.model.circuit,
            &format!("{} model of an 8-bit bus", kind.label()),
        );
        let fname = out_dir.join(format!(
            "{}.sp",
            kind.label()
                .replace(['(', ')', ',', '='], "_")
                .replace(' ', "-")
        ));
        fs::write(&fname, &deck)?;
        println!(
            "{:<16} -> {} ({} bytes, {} elements)",
            kind.label(),
            fname.display(),
            deck.len(),
            built.element_count()
        );
        sizes.push((kind.label(), deck.len()));
    }

    // Show the head of the VPEC deck: electrical + magnetic blocks.
    let vpec = exp.build(ModelKind::WVpecGeometric { b: 4 })?;
    let deck = to_classic_spice(&vpec.model.circuit, "wVPEC deck excerpt");
    println!("\nwVPEC deck excerpt:");
    for line in deck.lines().take(24) {
        println!("  {line}");
    }
    println!("  ...");
    Ok(())
}
