//! Drives the built `repro` binary: the method-inventory commands must be
//! usable as a gate (exit 0, one `[ok]` per method, no `[FAIL]`), and an
//! unknown command must exit 2 with a usage line that names exactly the
//! paper-reproduction commands.

use std::process::{Command, Output};

fn repro(command: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(command)
        .output()
        .expect("the repro binary runs")
}

#[test]
fn method_inventory_tables_pass_and_exit_zero() {
    for (command, methods) in [("table1", 16), ("table2", 6), ("table3", 4)] {
        let output = repro(command);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{command}: {stdout}");
        assert!(!stdout.contains("[FAIL]"), "{command}: {stdout}");
        assert_eq!(
            stdout.matches("[ok]").count(),
            methods,
            "{command}: {stdout}"
        );
    }
}

#[test]
fn unknown_command_exits_2_and_names_the_surviving_commands() {
    let output = repro("bogus");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let usage = stderr
        .lines()
        .find_map(|line| line.strip_prefix("expected one of: "))
        .expect("a usage line");
    let commands: Vec<&str> = usage.split_whitespace().collect();
    assert_eq!(
        commands,
        [
            "figure4", "figure5", "table1", "table2", "table3", "logistic", "kmeans", "overhead",
            "all"
        ]
    );
}
