//! A bin that cannot write its table into `results/` exits 1 naming the
//! path, rather than print the table and exit 0 with no file behind it.

use std::process::Command;

#[test]
fn a_table_bin_fails_naming_the_path_it_could_not_write() {
    let dir = std::env::temp_dir().join(format!("rmac-unwritable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a working directory");
    // A regular file where the results directory should be.
    std::fs::write(dir.join("results"), "").expect("create the blocker");
    for (bin, path) in [
        (env!("CARGO_BIN_EXE_table_overhead"), "table_overhead.csv"),
        (
            env!("CARGO_BIN_EXE_table1_transitions"),
            "table1_transitions.csv",
        ),
    ] {
        let out = Command::new(bin)
            .current_dir(&dir)
            .output()
            .expect("run the bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: {stderr}");
        assert!(
            stderr.contains(&format!("results/{path}")),
            "{bin}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
