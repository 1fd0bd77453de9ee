//! Integration tests for the `usi` command-line tool: build → persist →
//! query round-trips through real files and processes.

use std::io::Write;
use std::process::Command;

fn usi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_usi"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("usi-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn build_query_roundtrip() {
    let text_path = tmp("t1.txt");
    std::fs::File::create(&text_path)
        .unwrap()
        .write_all(b"abracadabra_abracadabra_abracadabra")
        .unwrap();
    let index_path = tmp("t1.usix");

    let out = usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--k",
            "10",
            "--seed",
            "5",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = usi().args(["query", index_path.to_str().unwrap(), "abra", "zzz"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2);
    // abra occurs 6 times; with unit weights, sum-of-sums = 6·4 = 24
    assert_eq!(lines[0].split('\t').collect::<Vec<_>>()[..3], ["abra", "6", "24"]);
    assert_eq!(lines[1].split('\t').collect::<Vec<_>>()[..2], ["zzz", "0"]);
}

#[test]
fn build_with_weights_file() {
    let text_path = tmp("t2.txt");
    std::fs::File::create(&text_path).unwrap().write_all(b"abab").unwrap();
    let weights_path = tmp("t2.weights");
    std::fs::File::create(&weights_path).unwrap().write_all(b"1.0 2.0 3.0 4.0").unwrap();
    let index_path = tmp("t2.usix");
    let out = usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--weights",
            weights_path.to_str().unwrap(),
            "--k",
            "3",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // "ab" occurs at 0 (1+2=3) and 2 (3+4=7): U = 10
    let out = usi().args(["query", index_path.to_str().unwrap(), "ab"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim().split('\t').collect::<Vec<_>>()[..3], ["ab", "2", "10"]);
}

#[test]
fn stats_and_topk_and_tradeoff() {
    let text_path = tmp("t3.txt");
    std::fs::File::create(&text_path).unwrap().write_all(&b"banana".repeat(20)).unwrap();
    let index_path = tmp("t3.usix");
    assert!(usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--tau",
            "10",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());

    let out = usi().args(["stats", index_path.to_str().unwrap()]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("n\t120"));
    assert!(stdout.contains("cached substrings"));

    let text = text_path.to_str().unwrap();
    let out = usi().args(["topk", text, "--k", "3"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 3);
    // most frequent single letters of banana^20: a (60), n (40), b (20)
    assert!(stdout.lines().next().unwrap().starts_with("60\ta"));

    // by frequency, then shorter node first, each node's lengths in order
    let out = usi().args(["topk", text, "--k", "8", "--min-len", "2"]).output().unwrap();
    let want = "40 na|40 an|40 ana|20 nan|20 nana|20 anan|20 anana|20 ba";
    assert_eq!(String::from_utf8(out.stdout).unwrap(), rows(want));

    // one row per distinct frequency: 22, fewer than --points, so all print
    let out = usi().args(["tradeoff", text, "--points", "100"]).output().unwrap();
    let want = "tau K L|60 1 1|40 5 3|20 15 6|19 51 12|18 87 18|17 123 24|16 159 30|15 195 36|\
                14 231 42|13 267 48|12 303 54|11 339 60|10 375 66|9 411 72|8 447 78|7 483 84|\
                6 519 90|5 555 96|4 591 102|3 627 108|2 663 114|1 699 120";
    assert_eq!(String::from_utf8(out.stdout).unwrap(), rows(want));

    // an empty text has no substrings: no rows, and only the header
    std::fs::write(&text_path, b"").unwrap();
    let out = usi().args(["topk", text, "--k", "5"]).output().unwrap();
    assert_eq!((out.status.success(), &out.stdout[..]), (true, &b""[..]));
    let out = usi().args(["tradeoff", text]).output().unwrap();
    assert_eq!(
        (out.status.success(), String::from_utf8(out.stdout).unwrap()),
        (true, rows("tau K L"))
    );
}

/// The `|`-separated rows of `table` as lines, spaces turned into tabs.
fn rows(table: &str) -> String {
    table.replace('|', "\n").replace(' ', "\t") + "\n"
}

#[test]
fn ingest_appends_replays_and_matches_scratch_build() {
    use std::process::Stdio;
    let text_path = tmp("t4.txt");
    std::fs::File::create(&text_path).unwrap().write_all(b"abcabcabc").unwrap();
    let base_path = tmp("t4-base.usix");
    assert!(usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--k",
            "8",
            "--seed",
            "42",
            "-o",
            base_path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());

    // interactive session: append twice, query once
    let wal_path = tmp("t4.usil");
    let _ = std::fs::remove_file(&wal_path);
    let mut child = usi()
        .args([
            "ingest",
            base_path.to_str().unwrap(),
            "--wal",
            wal_path.to_str().unwrap(),
            "--seal-threshold",
            "4",
            "--compact-fanout",
            "2",
            "--json",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"append abc\nappendw 1 abc\nquery abc\nstats\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // "abc" occurs 5 times in "abcabcabc" + "abcabc": U = 5·3 = 15
    assert!(
        stdout.contains(r#"{"pattern":"abc","occurrences":5,"value":15"#),
        "unexpected ingest output:\n{stdout}"
    );
    assert!(stdout.contains("n\t15"), "stats must report the grown length:\n{stdout}");

    // crash-recovery mode: replay the WAL, answers must match a
    // from-scratch build over the concatenated text
    let out = usi()
        .args([
            "ingest",
            base_path.to_str().unwrap(),
            "--wal",
            wal_path.to_str().unwrap(),
            "--replay",
            "--query",
            "abc",
            "--query",
            "cab",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let replayed = String::from_utf8(out.stdout).unwrap();

    let full_path = tmp("t4-full.txt");
    std::fs::File::create(&full_path).unwrap().write_all(b"abcabcabcabcabc").unwrap();
    let full_index = tmp("t4-full.usix");
    assert!(usi()
        .args([
            "build",
            full_path.to_str().unwrap(),
            "--k",
            "8",
            "--seed",
            "42",
            "-o",
            full_index.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let out = usi()
        .args(["query", "--json", full_index.to_str().unwrap(), "abc", "cab"])
        .output()
        .unwrap();
    let scratch = String::from_utf8(out.stdout).unwrap();
    // compare pattern/occurrences/value line by line (the `source` field
    // may legitimately differ between the segmented and monolithic index)
    for (replayed_line, scratch_line) in replayed.lines().zip(scratch.lines()) {
        let strip = |line: &str| line.split(r#","source""#).next().unwrap_or_default().to_string();
        assert_eq!(strip(replayed_line), strip(scratch_line));
    }
    assert_eq!(replayed.lines().count(), 2);
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!usi().args(["frobnicate"]).status().unwrap().success());
    assert!(!usi().args(["build"]).status().unwrap().success());
    assert!(!usi().args(["query", "/nonexistent/file.usix", "a"]).status().unwrap().success());
    assert!(!usi().args(["ingest", "/nonexistent/file.usix"]).status().unwrap().success());
}

#[test]
fn corrupted_index_rejected() {
    let bogus = tmp("bogus.usix");
    std::fs::File::create(&bogus).unwrap().write_all(b"not an index").unwrap();
    let out = usi().args(["query", bogus.to_str().unwrap(), "a"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("load failed"));
}

#[test]
fn inspect_validates_and_mmap_query_matches_owned() {
    let text_path = tmp("t9.txt");
    std::fs::File::create(&text_path)
        .unwrap()
        .write_all(b"abracadabra_abracadabra_abracadabra")
        .unwrap();
    let index_path = tmp("t9.usix");
    let out = usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--k",
            "10",
            "--seed",
            "5",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // inspect: header, section sizes, checksum status
    let out = usi().args(["inspect", index_path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("status\tvalid"), "{stdout}");
    assert!(stdout.contains("format\tUSIX v1"), "{stdout}");
    assert!(stdout.contains("crc32\t0x"), "{stdout}");
    assert!(stdout.contains("n\t35"), "{stdout}");
    assert!(stdout.contains("section bytes\t"), "{stdout}");

    // --mmap answers are identical to the owned load's
    let owned =
        usi().args(["query", index_path.to_str().unwrap(), "abra", "cad", "zzz"]).output().unwrap();
    let mapped = usi()
        .args(["query", "--mmap", index_path.to_str().unwrap(), "abra", "cad", "zzz"])
        .output()
        .unwrap();
    assert!(mapped.status.success(), "{}", String::from_utf8_lossy(&mapped.stderr));
    assert_eq!(owned.stdout, mapped.stdout);

    // a truncated file is reported corrupt with a nonzero exit
    let bytes = std::fs::read(&index_path).unwrap();
    let broken_path = tmp("t9-broken.usix");
    std::fs::write(&broken_path, &bytes[..bytes.len() - 5]).unwrap();
    let out = usi().args(["inspect", broken_path.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "truncated file must fail inspection");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("status\tcorrupt"), "{stdout}");
}

#[test]
fn rebuilding_a_mapped_index_leaves_the_old_view_intact() {
    let build = |text: &[u8], out: &std::path::Path| {
        let text_path = tmp("t10.txt");
        std::fs::write(&text_path, text).unwrap();
        let out = usi()
            .args(["build", text_path.to_str().unwrap(), "--k", "20", "-o", out.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    };
    let index_path = tmp("t10.usix");
    let long: Vec<u8> = (0..20_000).map(|i| b"acgt"[(i / 3 + i / 11) % 4]).collect();
    build(&long, &index_path);
    let original = std::fs::read(&index_path).unwrap();
    let view = usi::core::persist::open_mmap(&index_path).unwrap();

    // rebuild a much shorter text to the same path while the view is
    // mapped: truncating the file in place would make the view's pages
    // past the new end of file fault
    build(b"abracadabra", &index_path);
    assert!(std::fs::read(&index_path).unwrap().len() < original.len() / 100);
    let mut reread = Vec::new();
    view.write_to(&mut reread).unwrap();
    assert!(reread == original, "the old view must keep the bytes it was opened on");

    // the temporary file was renamed away, not left beside the output
    let leftovers: Vec<_> = std::fs::read_dir(index_path.parent().unwrap())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(".t10.usix.tmp"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn serve_accepts_the_largest_idle_timeout() {
    use std::io::{BufRead, Read};
    use std::process::Stdio;

    let text_path = tmp("t11.txt");
    std::fs::write(&text_path, b"abracadabra_abracadabra").unwrap();
    let index_path = tmp("t11.usix");
    let out = usi()
        .args([
            "build",
            text_path.to_str().unwrap(),
            "--k",
            "8",
            "-o",
            index_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // u64::MAX milliseconds: the idle wheel keeps its fixed size and the
    // parked connection's deadline never expires
    let mut child = usi()
        .args([
            "serve",
            index_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--idle-timeout-ms",
            "18446744073709551615",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stdin = child.stdin.take().unwrap();
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let addr: std::net::SocketAddr = loop {
        let mut line = String::new();
        assert_ne!(stderr.read_line(&mut line).unwrap(), 0, "server exited before its banner");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().unwrap().parse().unwrap();
        }
    };

    // two requests on one kept-alive connection: it parks between them
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    for _ in 0..2 {
        stream
            .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
            .unwrap();
        let reply = usi::server::read_response(&mut stream, &mut Vec::new()).unwrap();
        assert_eq!(reply.status, 200);
        assert!(reply.body.starts_with(r#"{"status":"ok","docs":1"#), "{}", reply.body);
    }

    drop(stdin); // EOF → graceful shutdown closes the parked connection
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert!(child.wait().unwrap().success(), "server exit: {rest}");
}

/// Builds a small index for the flag tests and returns its path.
fn flag_test_index(name: &str) -> String {
    let text_path = tmp(&format!("{name}.txt"));
    std::fs::write(&text_path, b"abracadabra_abracadabra").unwrap();
    let index_path = tmp(&format!("{name}.usix"));
    let index = index_path.to_str().unwrap().to_string();
    let out = usi()
        .args(["build", text_path.to_str().unwrap(), "--k", "8", "-o", &index])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    index
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    use std::process::Stdio;

    let index = flag_test_index("t12");
    let text = tmp("t12.txt").to_str().unwrap().to_string();
    let out_path = tmp("t12-threads.usix").to_str().unwrap().to_string();
    // a flag before the index path must not swallow it as a value, one
    // after it must not pass unnoticed (with stdin at EOF, a server that
    // started would exit 0), another subcommand's flag is unknown too,
    // and so is the thread count serial construction no longer takes
    for (args, flag) in [
        (&["serve", "--no-reactor", &index][..], "--no-reactor"),
        (&["serve", &index, "--bogus-flag"][..], "--bogus-flag"),
        (&["query", &index, "abra", "--k", "3"][..], "--k"),
        (&["inspect", &index, "--mmap"][..], "--mmap"),
        (&["build", &text, "--threads", "4", "-o", &out_path][..], "--threads"),
    ] {
        let out = usi().args(args).stdin(Stdio::null()).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("does not take {flag};")), "{args:?}: {stderr}");
    }
}

#[test]
fn value_flags_without_a_value_exit_2() {
    let text_path = tmp("t14.txt");
    std::fs::write(&text_path, b"abracadabra_abracadabra").unwrap();
    let text = text_path.to_str().unwrap();
    let index_path = tmp("t14.usix");
    let index = index_path.to_str().unwrap();
    // a value flag followed by another flag, by `-o`, or by nothing must
    // not build with a default nor take the next flag as its value
    for (args, flag) in [
        (&["build", text, "--uniform", "1", "--seed", "--k", "5", "-o", index][..], "--seed"),
        (&["build", text, "--uniform", "1", "--k", "-o", index][..], "--k"),
        (&["build", text, "--uniform", "1", "--k", "5", "-o", index, "--seed"][..], "--seed"),
        (&["build", text, "--k", "5", "-o"][..], "-o"),
    ] {
        let _ = std::fs::remove_file(&index_path);
        let out = usi().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("{flag} expects a value")), "{args:?}: {stderr}");
        assert!(!index_path.exists(), "{args:?} wrote an index");
    }
    // a value that starts with a single dash is still a value
    let out =
        usi().args(["build", text, "--uniform", "-1", "--k", "5", "-o", index]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn serve_takes_the_flags_its_callers_pass() {
    use std::process::Stdio;

    let index = flag_test_index("t13");
    let wal_dir = tmp("t13-wals");
    let _ = std::fs::remove_dir_all(&wal_dir);
    // a primary and a follower with every flag CI and the benchmark
    // pass; each starts, reads EOF on stdin and shuts down cleanly
    let primary = [
        "--mmap",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--ingest-wal",
        wal_dir.to_str().unwrap(),
        "--repl-listen",
        "127.0.0.1:0",
        "--seal-threshold",
        "64",
        "--compact-fanout",
        "4",
        "--slow-query-ms",
        "500",
        "--access-log",
        "text",
        "--idle-timeout-ms",
        "1000",
    ];
    let follower =
        ["--mmap", "--addr", "127.0.0.1:0", "--follow", "127.0.0.1:1", "--repl-poll-ms", "10"];
    for flags in [&primary[..], &follower[..]] {
        let out = usi().arg("serve").arg(&index).args(flags).stdin(Stdio::null()).output().unwrap();
        assert!(out.status.success(), "{flags:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn serve_skips_subdirectories_named_usix_in_every_mode() {
    use std::process::Stdio;

    let index = flag_test_index("t15");
    let corpus = tmp("t15-corpus");
    let _ = std::fs::remove_dir_all(&corpus);
    std::fs::create_dir_all(corpus.join("junk.usix")).unwrap();
    std::fs::copy(&index, corpus.join("doc.usix")).unwrap();
    let wal_dir = tmp("t15-wals");
    let _ = std::fs::remove_dir_all(&wal_dir);
    // static, ingest-enabled and follower serving expand a directory by
    // the same rule: its regular `.usix` entries only
    let ingest = ["--ingest-wal", wal_dir.to_str().unwrap()];
    let follow = ["--follow", "127.0.0.1:1", "--repl-poll-ms", "10"];
    for flags in [&[][..], &ingest[..], &follow[..]] {
        let out = usi()
            .arg("serve")
            .arg(&corpus)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flags:?}: {stderr}");
        assert!(stderr.contains("loaded doc: n = 23"), "{flags:?}: {stderr}");
    }
}

#[test]
fn serve_refuses_a_list_with_a_bad_file_or_a_duplicate_id() {
    use std::process::Stdio;

    let good = flag_test_index("t16");
    let bad = tmp("t16-bad.usix");
    std::fs::write(&bad, b"not an index").unwrap();
    // the same stem in another directory would shadow the first index
    let twin_dir = tmp("t16-twin");
    std::fs::create_dir_all(&twin_dir).unwrap();
    let twin = twin_dir.join("t16.usix");
    std::fs::copy(&good, &twin).unwrap();
    for (list, expected) in [
        ([good.as_str(), bad.to_str().unwrap()], format!("cannot load {}", bad.display())),
        ([good.as_str(), twin.to_str().unwrap()], "duplicate document id \"t16\"".to_string()),
    ] {
        let out = usi()
            .arg("serve")
            .args(list)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{list:?}: {stderr}");
        assert!(stderr.contains(&expected), "{list:?}: {stderr}");
    }
}
