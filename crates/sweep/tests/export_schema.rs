//! Regression pin for the `nd-export/v1` envelope: the exact bytes of a
//! small, fully deterministic (closed-form bounds backend) sweep export.
//! Any change to the envelope, column layout, float rendering or document
//! shape trips this test — which is the point: existing exports must stay
//! byte-stable within a schema version, and intentional format changes
//! must bump `EXPORT_SCHEMA`.

use nd_sweep::{run_sweep, to_csv, to_json, ScenarioSpec, SweepOptions, EXPORT_SCHEMA};

fn outcome() -> nd_sweep::SweepOutcome {
    let spec = ScenarioSpec::from_toml_str(
        "name = \"golden\"\nbackend = \"bounds\"\n[grid]\neta = [0.05, 0.1]\nratio = [1.0]\n",
    )
    .unwrap();
    run_sweep(&spec, &SweepOptions::uncached()).unwrap()
}

#[test]
fn schema_tag_is_v1() {
    assert_eq!(EXPORT_SCHEMA, "nd-export/v1");
}

#[test]
fn golden_csv_bytes() {
    let expected = "\
# nd-export/v1
protocol,eta,slot_us,protocol_b,eta_b,slot_us_b,mix,nodes,churn,collision,drift_ppm,drop_probability,turnaround_us,phase_us,ratio,bound_s,penalty,product,error
optimal-slotless,0.05,1000,,,,0,2,0,true,0,0,0,random,1,0.23039999999999997,1,0.011519999999999999,
optimal-slotless,0.1,1000,,,,0,2,0,true,0,0,0,random,1,0.05759999999999999,1,0.0057599999999999995,
";
    assert_eq!(to_csv(&outcome()), expected);
}

#[test]
fn golden_json_bytes() {
    let expected = r#"{
  "name": "golden",
  "rows": [
    {
      "error": null,
      "from_cache": false,
      "metrics": {
        "bound_s": 0.23039999999999997,
        "penalty": 1.0,
        "product": 0.011519999999999999
      },
      "params": {
        "churn": 0.0,
        "collision": true,
        "drift_ppm": 0,
        "drop_probability": 0.0,
        "eta": 0.05,
        "eta_b": null,
        "mix": 0.0,
        "nodes": 2,
        "phase_us": "random",
        "protocol": "optimal-slotless",
        "protocol_b": null,
        "ratio": 1.0,
        "slot_us": 1000.0,
        "slot_us_b": null,
        "turnaround_us": 0.0
      }
    },
    {
      "error": null,
      "from_cache": false,
      "metrics": {
        "bound_s": 0.05759999999999999,
        "penalty": 1.0,
        "product": 0.0057599999999999995
      },
      "params": {
        "churn": 0.0,
        "collision": true,
        "drift_ppm": 0,
        "drop_probability": 0.0,
        "eta": 0.1,
        "eta_b": null,
        "mix": 0.0,
        "nodes": 2,
        "phase_us": "random",
        "protocol": "optimal-slotless",
        "protocol_b": null,
        "ratio": 1.0,
        "slot_us": 1000.0,
        "slot_us_b": null,
        "turnaround_us": 0.0
      }
    }
  ],
  "schema": "nd-export/v1",
  "spec_hash": "cd07e4556a46402ccab3b35c2dfec4d43107f9bd4725b2288788d7893a21a73a"
}
"#;
    assert_eq!(to_json(&outcome()), expected);
}
