//! Boots the `pka` binary in every node role on ephemeral ports, drives it
//! with `pka probe --shutdown`, and requires every process to exit 0
//! within a deadline: a leaked thread keeps a process alive past it.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(120);

fn pka(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_pka"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pka")
}

/// Waits for `child` to exit, killing it and failing the test past the
/// deadline.
fn exit_status(child: &mut Child, what: &str) -> ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if start.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            panic!("{what} still running {DEADLINE:?} after it was started");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn read_all(pipe: Option<impl Read>) -> String {
    let mut text = String::new();
    pipe.expect("piped").read_to_string(&mut text).expect("read pipe");
    text
}

/// A running node and its stdout, which stays open so the node's last
/// line (`shut down cleanly`) has somewhere to go.
struct Node {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Node {
    fn boot(args: &[&str]) -> Node {
        let mut child = pka(args);
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read the boot line");
        let addr = match line.trim().strip_prefix("listening on ") {
            Some(addr) => addr.to_string(),
            None => panic!("`pka {}` printed {line:?} instead of its address", args.join(" ")),
        };
        Node { child, stdout, addr }
    }

    fn assert_exits_cleanly(mut self, what: &str) {
        let status = exit_status(&mut self.child, what);
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("read node stdout");
        assert!(
            status.success(),
            "{what} exited with {status}: {}",
            read_all(self.child.stderr.take())
        );
        assert!(rest.contains("shut down cleanly"), "{what} printed {rest:?}");
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        // Reaps a node a failed assertion left running; a no-op after a
        // clean exit.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn probe(args: &[&str]) -> String {
    let mut child = pka(&[&["probe"], args].concat());
    let status = exit_status(&mut child, "probe");
    let stdout = read_all(child.stdout.take());
    assert!(status.success(), "probe failed: {stdout}{}", read_all(child.stderr.take()));
    stdout
}

#[test]
fn standalone_serves_the_probe_and_exits_on_shutdown() {
    let node = Node::boot(&["standalone", "--port", "0", "--survey"]);
    let report = probe(&["--addr", &node.addr, "--shutdown"]);
    assert!(report.contains("probe: shutdown acknowledged"), "{report}");
    node.assert_exits_cleanly("standalone");
}

#[test]
fn fabric_trio_converges_and_exits_on_shutdown() {
    let coordinator = Node::boot(&["coordinator", "--port", "0", "--survey", "--policy", "manual"]);
    let ingest_node =
        Node::boot(&["ingest-node", "--port", "0", "--survey", "--coordinator", &coordinator.addr]);
    let replica =
        Node::boot(&["replica", "--port", "0", "--survey", "--coordinator", &coordinator.addr]);
    let report = probe(&[
        "--addr",
        &coordinator.addr,
        "--ingest",
        &ingest_node.addr,
        "--replica",
        &replica.addr,
        "--shutdown",
    ]);
    assert!(report.contains("probe: recovery recovered_sources=0 recovered_tuples=0"), "{report}");
    assert!(report.contains(&format!("probe: replica {} converged", replica.addr)), "{report}");
    replica.assert_exits_cleanly("replica");
    ingest_node.assert_exits_cleanly("ingest-node");
    coordinator.assert_exits_cleanly("coordinator");
}

#[test]
fn unknown_and_misplaced_flags_are_refused_by_name() {
    for (args, named) in [
        (&["standalone", "--survy"][..], "--survy"),
        (&["standalone", "--survey", "--expect-factored"], "--expect-factored"),
        (&["replica", "--survey", "--policy", "manual"], "--policy"),
        (&["launch"], "usage"),
    ] {
        let mut child = pka(args);
        let status = exit_status(&mut child, "pka");
        let stderr = read_all(child.stderr.take());
        assert!(!status.success(), "`pka {}` was accepted", args.join(" "));
        assert!(stderr.contains(named), "`pka {}` printed {stderr:?}", args.join(" "));
    }
}
