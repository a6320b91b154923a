//! Exit status of the `figures` binary on bad input.
//!
//! Vertex ids are `u32`, so R-MAT scales stop at 31: a masked `1 << 36`
//! would silently run a 16-vertex graph. An out-of-range scale, or a
//! `BATMEM_SCALE` that does not parse, must exit 2 with usage before any
//! simulation runs rather than fall back to the default. So must a sweep
//! into a store that already holds cells, unless it asks to `--resume`.

use std::process::{Command, Output};

fn figures(env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(args).env_remove("BATMEM_SCALE").env_remove("BATMEM_EDGE_FACTOR");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("figures runs")
}

fn assert_usage_exit(out: &Output, names: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(names), "stderr does not name `{names}`: {stderr}");
}

#[test]
fn bad_graph_environment_exits_with_usage() {
    let custom = ["--workload", "BFS-TTC"];
    let out = figures(&[("BATMEM_SCALE", "abc")], &custom);
    assert_usage_exit(&out, "`abc`");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: figures"));
    assert_usage_exit(&figures(&[("BATMEM_SCALE", "36")], &custom), "scale 36");
    assert_usage_exit(&figures(&[("BATMEM_EDGE_FACTOR", "-4")], &custom), "`-4`");
}

#[test]
fn sweep_rejects_scales_past_u32_vertex_ids() {
    let dir = std::env::temp_dir().join(format!("batmem-cli-scale-{}", std::process::id()));
    let out = figures(&[], &["sweep", dir.to_str().unwrap(), "--scales", "36"]);
    assert_usage_exit(&out, "scale 36");
    assert!(!dir.exists(), "an invalid plan must not open a store");
}

#[test]
fn sweep_into_a_store_with_cells_needs_resume() {
    let dir = std::env::temp_dir().join(format!("batmem-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = dir.join("cells").join("0000000000000001.json");
    std::fs::create_dir_all(record.parent().unwrap()).unwrap();
    std::fs::write(&record, "{}").unwrap();
    let out = figures(&[], &["sweep", dir.to_str().unwrap()]);
    assert_usage_exit(&out, "--resume");
    assert!(record.exists(), "the store is left as it was");
    let _ = std::fs::remove_dir_all(&dir);
}
