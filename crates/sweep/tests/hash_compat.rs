//! Backward-compatibility regression: every symmetric scenario spec that
//! predates the role-typed pipeline must keep its content hashes — spec
//! hash and per-job hashes — byte for byte. The role-B axes enter a hash
//! only when a spec actually uses them, so the entire pre-role cache
//! stays valid with no ENGINE_VERSION bump.
//!
//! The pinned values below were first captured from `nd-sweep hash` /
//! `nd-sweep expand` on the commit immediately before the role axes
//! landed (`fb563df`), and re-pinned the same way when ENGINE_VERSION
//! moved to abi4 (Monte-Carlo trials on `nd-netsim`). If this test
//! fails, symmetric users just lost their cache: either restore hash
//! equality or bump ENGINE_VERSION and re-pin deliberately.

use nd_sweep::{expand, ScenarioSpec};
use std::path::PathBuf;

fn scenario(name: &str) -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name);
    ScenarioSpec::from_file(&path).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// `(spec file, pinned spec hash, pinned 12-hex job hash prefixes)`.
const PINNED: &[(&str, &str, &[&str])] = &[
    (
        "drift-strip-rescue.toml",
        "54a9e290fc7bf7a7594a6746b585518be09e267424595a50ae29dc01cc956278",
        &[
            "b4f2ddefbb39",
            "f3b404c79bd6",
            "1f2cb2d3c266",
            "f6ae19744fca",
        ],
    ),
    (
        "fig5-slot-boundary-strips.toml",
        "65688ada4f07210a2a080a6b9ee0110b64a9193f1e87f3f19ae9c53d3103524a",
        &[
            "a52ea89ac0ca",
            "b53ea7116466",
            "f1655dc117be",
            "6dce8fe7e7b2",
            "06f17ad3c009",
        ],
    ),
    (
        "fig6-asymmetry-cost.toml",
        "d1cb7bace9e9c2f067b5a8b6dd268ab6d944856956faa7d03c9f1c2b98d5445c",
        &[
            "a58181097468",
            "95b633fc23ab",
            "bb24f356ea3e",
            "f126167a88a5",
            "37bb9ed5cee0",
        ],
    ),
    (
        "netsim-churn-resilience.toml",
        "22adf3323dc41e469ce2e4bd4c4dc1260f962d14df8514a80cbf0f364bb396a0",
        &[
            "b9167256e08b",
            "e5aff7794593",
            "1ea6783fac4a",
            "61e2fb814de0",
            "770c2116d3ef",
        ],
    ),
    (
        "netsim-cohort-scaling.toml",
        "5509ad459d99dc2c82d0e17c7c155af3c6d3ec69399f689adf187ea5117b8465",
        &[
            "f360e3d989bd",
            "fc00ab578870",
            "668d6770e44a",
            "2cd3148ab574",
            "7b53dd14d8db",
            "1ffb24768ee8",
        ],
    ),
    (
        "pfail-self-blocking.toml",
        "a688bad7d2924f3aeb5df4e34bb75fa8e08408023bed8083bfb1d2fd23352ab0",
        &["82be1dde9d78", "11cd8e01830f"],
    ),
    (
        "protocol-shootout.toml",
        "912a130b4196360bd9ab977e7a8a20cd6aadd765c542cc1895e16fb8f444114e",
        &[
            "d2c36265309c",
            "b3b61581ee3a",
            "a09ef5c6f684",
            "70f8b4568bb8",
        ],
    ),
];

#[test]
fn pre_role_scenario_specs_hash_identically_to_main() {
    for (file, spec_hash, job_prefixes) in PINNED {
        let spec = scenario(file);
        assert_eq!(
            &spec.content_hash(),
            spec_hash,
            "{file}: spec content hash changed — symmetric cache invalidated"
        );
        let jobs = expand(&spec);
        assert!(
            jobs.len() >= job_prefixes.len(),
            "{file}: fewer jobs than pinned"
        );
        for (job, pinned) in jobs.iter().zip(*job_prefixes) {
            assert_eq!(
                &job.content_hash(&spec)[..12],
                *pinned,
                "{file} job {}: content hash changed — symmetric cache invalidated",
                job.index
            );
        }
    }
}

/// The same property, spec-level: a symmetric grid encodes no role-B
/// bytes at all, while any role-B departure changes both the spec hash
/// and the affected job hashes.
#[test]
fn role_axes_only_hash_when_used() {
    let sym = ScenarioSpec::from_toml_str(
        "backend = \"exact\"\n[grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.05]\n",
    )
    .unwrap();
    let sym_job = &expand(&sym)[0];
    assert!(!sym.grid.has_role_axes());
    assert!(!sym_job.has_role_b());

    let asym = ScenarioSpec::from_toml_str(
        "backend = \"exact\"\n[grid]\nprotocol = [\"optimal-slotless\"]\neta = [0.05]\neta_b = [0.02]\n",
    )
    .unwrap();
    assert!(asym.grid.has_role_axes());
    assert_ne!(sym.content_hash(), asym.content_hash());
    let asym_job = &expand(&asym)[0];
    assert!(asym_job.has_role_b());
    assert_ne!(sym_job.content_hash(&sym), asym_job.content_hash(&asym));
}
