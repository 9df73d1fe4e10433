//! Hostile repro bundles: a bundle whose stored graph is corrupt must
//! load as a named supervisor error, never panic while loading or
//! replaying.

use std::path::{Path, PathBuf};

use delta_core::{load_bundle, DeltaColoringError};
use serde::{json, Value};

fn golden_bundle() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden-bundle.json");
    json::parse(&std::fs::read_to_string(path).expect("golden bundle")).expect("bundle JSON")
}

/// The golden bundle with `graph.<field>` (element `index` when the field
/// is a list) set to `value`, written to a temporary file.
fn mutated_bundle(field: &str, index: usize, value: u64) -> PathBuf {
    let mut bundle = golden_bundle();
    let Value::Map(top) = &mut bundle else {
        panic!("bundle is an object")
    };
    let Some((_, Value::Map(graph))) = top.iter_mut().find(|(k, _)| k == "graph") else {
        panic!("bundle has a graph object")
    };
    let slot = &mut graph.iter_mut().find(|(k, _)| k == field).expect("field").1;
    match slot {
        Value::Seq(items) => items[index] = Value::U64(value),
        other => *other = Value::U64(value),
    }
    let path = std::env::temp_dir().join(format!(
        "hostile-bundle-{}-{field}-{index}.json",
        std::process::id()
    ));
    std::fs::write(&path, json::to_string(&bundle)).expect("write mutated bundle");
    path
}

#[test]
fn corrupt_bundle_graphs_load_as_supervisor_errors() {
    let m = golden_bundle()
        .field("graph")
        .and_then(|g| g.field("m"))
        .cloned()
        .expect("graph.m");
    let Value::U64(m) = m else {
        panic!("graph.m is an integer")
    };
    for (field, index, value) in [
        ("adj", 0, 1_000_000),
        ("offsets", 1, 1_000_000),
        ("m", 0, m + 1),
    ] {
        let path = mutated_bundle(field, index, value);
        let result = load_bundle(&path);
        let _ = std::fs::remove_file(&path);
        match result {
            Err(DeltaColoringError::Supervisor(msg)) => {
                assert!(msg.contains("invalid graph"), "{field}: {msg}");
            }
            Err(other) => panic!("{field}: expected a supervisor error, got {other}"),
            Ok(_) => panic!("{field}: a corrupt bundle graph loaded"),
        }
    }
}
