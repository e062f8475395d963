//! End-to-end tests of the `gridvo` binary: generate → form → solve →
//! game → stats, through real files in a temp directory.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn gridvo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gridvo"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridvo-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn full_workflow_scenario_form_solve_game() {
    let dir = tmpdir("flow");
    let scenario = dir.join("scenario.json");
    let outcome = dir.join("outcome.json");

    let out = run_ok(gridvo().args([
        "generate",
        "scenario",
        "--out",
        scenario.to_str().unwrap(),
        "--tasks",
        "20",
        "--gsps",
        "5",
        "--seed",
        "3",
    ]));
    assert!(out.contains("20 tasks on 5 GSPs"));
    assert!(scenario.exists());

    let out = run_ok(gridvo().args([
        "form",
        "--scenario",
        scenario.to_str().unwrap(),
        "--audit",
        "--out",
        outcome.to_str().unwrap(),
    ]));
    assert!(out.contains("selected VO"), "no VO in: {out}");
    assert!(out.contains("Theorem 1"));
    assert!(out.contains("Theorem 2"));
    assert!(outcome.exists());
    // the outcome round-trips as JSON
    let text = std::fs::read_to_string(&outcome).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert!(parsed.get("iterations").is_some());

    let out = run_ok(gridvo().args([
        "solve",
        "--scenario",
        scenario.to_str().unwrap(),
        "--members",
        "0,1,2",
    ]));
    assert!(out.contains("status:"), "no status in: {out}");

    let out = run_ok(gridvo().args(["game", "--scenario", scenario.to_str().unwrap()]));
    assert!(out.contains("Shapley value"));
    assert!(out.contains("least core"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_generation_and_stats() {
    let dir = tmpdir("trace");
    let trace = dir.join("atlas.swf");
    run_ok(gridvo().args([
        "generate",
        "trace",
        "--out",
        trace.to_str().unwrap(),
        "--jobs",
        "500",
        "--seed",
        "9",
    ]));
    let out = run_ok(gridvo().args(["stats", "--swf", trace.to_str().unwrap()]));
    assert!(out.contains("jobs:            500"));
    assert!(out.contains("completed:"));
    assert!(out.contains("size histogram"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rvof_mechanism_selectable() {
    let dir = tmpdir("rvof");
    let scenario = dir.join("s.json");
    run_ok(gridvo().args([
        "generate",
        "scenario",
        "--out",
        scenario.to_str().unwrap(),
        "--tasks",
        "15",
        "--gsps",
        "4",
        "--seed",
        "1",
    ]));
    let out = run_ok(gridvo().args([
        "form",
        "--scenario",
        scenario.to_str().unwrap(),
        "--mechanism",
        "rvof",
        "--seed",
        "2",
    ]));
    assert!(out.contains("iter"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn execute_subcommand_runs_with_and_without_faults() {
    let dir = tmpdir("exec");
    let scenario = dir.join("scenario.json");
    let report = dir.join("report.json");
    run_ok(gridvo().args([
        "generate",
        "scenario",
        "--out",
        scenario.to_str().unwrap(),
        "--tasks",
        "20",
        "--gsps",
        "5",
        "--seed",
        "3",
    ]));

    // fault-free execution is a pass-through of the formation output
    let out = run_ok(gridvo().args([
        "execute",
        "--scenario",
        scenario.to_str().unwrap(),
        "--faults",
        "0",
        "--out",
        report.to_str().unwrap(),
    ]));
    assert!(out.contains("formed VO"), "no VO in: {out}");
    assert!(out.contains("fault plan: 0 event(s)"), "plan not empty: {out}");
    assert!(out.contains("completed"), "did not complete: {out}");
    let text = std::fs::read_to_string(&report).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed.get("payoff_retention").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(parsed.get("recoveries").and_then(|v| v.as_array()).map(|a| a.len()), Some(0));

    // a hand-written plan file drives execution deterministically
    let plan = dir.join("plan.json");
    std::fs::write(&plan, r#"{"events":[{"round":0,"gsp":0,"kind":{"kind":"crash"}}]}"#).unwrap();
    let out = run_ok(gridvo().args([
        "execute",
        "--scenario",
        scenario.to_str().unwrap(),
        "--plan",
        plan.to_str().unwrap(),
    ]));
    assert!(out.contains("fault plan: 1 event(s)"), "plan not loaded: {out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_subcommand_runs() {
    let out = run_ok(
        gridvo().args(["dynamic", "--rounds", "4", "--gsps", "4", "--tasks", "12", "--seed", "1"]),
    );
    assert!(out.contains("mean member reliability"));
    assert!(out.contains("round"));
}

#[test]
fn errors_are_reported_not_panicked() {
    // unknown subcommand
    let out = gridvo().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
    // missing file
    let out = gridvo().args(["form", "--scenario", "/nonexistent.json"]).output().unwrap();
    assert!(!out.status.success());
    // bad flag
    let out = gridvo().args(["form", "--bogus"]).output().unwrap();
    assert!(!out.status.success());
    // tasks < gsps
    let out = gridvo()
        .args(["generate", "scenario", "--out", "/tmp/x.json", "--tasks", "2", "--gsps", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // solver names that no longer exist, on a valid scenario
    let dir = tmpdir("errors");
    let scenario = dir.join("scenario.json");
    let path = scenario.to_str().unwrap();
    run_ok(gridvo().args(["generate", "scenario", "--out", path, "--tasks", "6", "--gsps", "3"]));
    for solver in ["parallel", "portfolio"] {
        let out =
            gridvo().args(["solve", "--scenario", path, "--solver", solver]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "--solver {solver}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown solver"), "--solver {solver}: {stderr}");
    }
    // The registry has no write shards to size. A closed stdin pipe
    // stops a daemon that would accept the flag instead of hanging.
    let mut serve = gridvo()
        .args(["serve", "--shards", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(serve.stdin.take());
    let out = serve.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2), "serve --shards");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --shards"), "serve --shards: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_mechanism_and_missing_ids_are_usage_errors() {
    let dir = tmpdir("usage");
    let scenario = dir.join("scenario.json");
    let path = scenario.to_str().unwrap();
    run_ok(gridvo().args(["generate", "scenario", "--out", path, "--tasks", "6", "--gsps", "3"]));
    // A listener that hangs up at once: `gridvo request` connects, then
    // must refuse its own flags before sending anything.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || listener.incoming().for_each(drop));

    let mechanism_cases: [&[&str]; 4] = [
        &["form", "--scenario", path, "--mechanism", "zvof"],
        &["execute", "--scenario", path, "--mechanism", "zvof"],
        &["dynamic", "--rounds", "1", "--gsps", "2", "--tasks", "4", "--mechanism", "zvof"],
        &["request", "form", "--addr", &addr, "--mechanism", "zvof"],
    ];
    for args in mechanism_cases {
        let out = gridvo().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(r#"unknown mechanism "zvof" (tvof|rvof)"#), "{args:?}: {stderr}");
    }

    // Ids used to default to sentinels that went over the wire.
    let missing: [(&str, &[&str]); 4] = [
        ("lease", &["release-lease"]),
        ("id", &["remove-gsp"]),
        ("gsp", &["report-receipt", "--witnesses", "0"]),
        ("from", &["report-trust", "--to", "1", "--value", "0.5"]),
    ];
    for (flag, args) in missing {
        let out = gridvo().args(["request"]).args(args).args(["--addr", &addr]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("missing required flag --{flag}")), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deterministic_scenarios_under_seed() {
    let dir = tmpdir("det");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    for path in [&a, &b] {
        run_ok(gridvo().args([
            "generate",
            "scenario",
            "--out",
            path.to_str().unwrap(),
            "--tasks",
            "12",
            "--gsps",
            "4",
            "--seed",
            "77",
        ]));
    }
    let ta = std::fs::read_to_string(&a).unwrap();
    let tb = std::fs::read_to_string(&b).unwrap();
    assert_eq!(ta, tb, "same seed must give identical scenario files");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_prints_the_vos_cost_payment_and_value() {
    let dir = tmpdir("solve-value");
    let scenario = dir.join("scenario.json");
    let path = scenario.to_str().unwrap();
    let generate = ["generate", "scenario", "--out", path, "--tasks", "20", "--gsps", "5"];
    run_ok(gridvo().args(generate).args(["--seed", "3"]));
    let value_line = |extra: &[&str]| {
        let out = run_ok(gridvo().args(["solve", "--scenario", path]).args(extra));
        out.lines().nth(1).unwrap_or_default().to_string()
    };
    assert_eq!(
        value_line(&["--members", "0,1,2"]),
        "VO [0, 1, 2]: cost 4215.90 of payment 8853 → value 4636.66"
    );
    assert_eq!(
        value_line(&["--solver", "max-min"]),
        "VO [0, 1, 2, 3, 4]: cost 5443.38 of payment 8853 → value 3409.19"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_max_nodes_caps_the_exact_search() {
    let dir = tmpdir("max-nodes");
    let scenario = dir.join("scenario.json");
    let path = scenario.to_str().unwrap();
    let generate = ["generate", "scenario", "--out", path, "--tasks", "12", "--gsps", "4"];
    run_ok(gridvo().args(generate).args(["--seed", "1"]));
    // The tree search, not the root, finds this scenario's optimum.
    let full = run_ok(gridvo().args(["solve", "--scenario", path]));
    assert!(full.starts_with("status: OPTIMAL (proven, "), "{full}");
    assert!(full.lines().next().unwrap().ends_with("incumbent: search)"), "{full}");
    // One node cannot prove it.
    let capped = run_ok(gridvo().args(["solve", "--scenario", path, "--max-nodes", "1"]));
    let status = capped.lines().next().unwrap();
    assert!(status.contains("budget-truncated") || status.contains("UNKNOWN"), "{capped}");
    // 0 means the default cap: the full solve.
    assert_eq!(run_ok(gridvo().args(["solve", "--scenario", path, "--max-nodes", "0"])), full);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let dir = tmpdir("closed-stdout");
    let scenario = dir.join("scenario.json");
    let path = scenario.to_str().unwrap();
    // The read end closes before the child starts, so its first write
    // meets a broken pipe.
    let closed_stdout = || {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        writer
    };
    let generate = ["generate", "scenario", "--out", path, "--tasks", "20", "--gsps", "5"];
    for argv in [&generate[..], &["solve", "--scenario", path, "--members", "0,1,2"]] {
        let out = gridvo().args(argv).stdout(closed_stdout()).output().expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{argv:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stderr.is_empty(), "{argv:?}: {}", String::from_utf8_lossy(&out.stderr));
        // The command still did its work.
        assert!(scenario.exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}
