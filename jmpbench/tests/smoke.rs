//! Runs every workload of `BENCHMARK.json` for one second, untraced and
//! traced, and checks that each run emits every metric the file names,
//! with its unit, and that no operation failed its check.
//!
//! `cargo test --release --manifest-path jmpbench/Cargo.toml`

use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value, enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        value
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value() else {
                        panic!("object keys are strings")
                    };
                    self.eat(b':');
                    let value = self.value();
                    assert!(map.insert(key, value).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "no escapes expected");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return value;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_jmpbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

fn check(result: &Json, named: &[Json], what: &str) {
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{what}: {result:?}"
    );
    assert_eq!(
        result.get("failed"),
        &Json::Num(0.0),
        "{what}: fail_frac is not 0"
    );
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("{what}: attempted missing")
    };
    assert!(*attempted >= 1.0, "{what}: nothing attempted");
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("{what}: metrics missing")
    };
    assert_eq!(
        metrics.len(),
        named.len(),
        "{what}: emits exactly the named metrics"
    );
    for metric in named {
        let name = metric.get("name").str();
        let emitted = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} not emitted"));
        assert_eq!(
            emitted.get("unit").str(),
            metric.get("unit").str(),
            "{what}: {name}"
        );
        assert!(
            matches!(emitted.get("value"), Json::Num(v) if v.is_finite()),
            "{what}: {name} is not a number"
        );
    }
}

#[test]
fn every_workload_emits_every_named_metric_without_failures() {
    let spec = spec();
    for workload in spec.get("workloads").arr() {
        let name = workload.get("name").str();
        let untraced = run(name, 0);
        check(
            &untraced,
            spec.get("end_to_end").arr(),
            &format!("{name} --trace 0"),
        );
        let Json::Obj(metrics) = untraced.get("metrics") else {
            unreachable!()
        };
        for (metric, value) in metrics {
            assert!(
                matches!(value.get("value"), Json::Num(v) if *v > 0.0),
                "{name}: end-to-end metric {metric} is 0"
            );
        }
        check(
            &run(name, 1),
            spec.get("per_layer").arr(),
            &format!("{name} --trace 1"),
        );
    }
}

#[test]
fn the_parser_reads_what_the_benchmark_prints() {
    let v = Parser::parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "d"}}"#);
    assert_eq!(v.get("a").arr().len(), 4);
    assert_eq!(v.get("a").arr()[1], Json::Num(-2500.0));
    assert_eq!(v.get("b").get("c").str(), "d");
}
