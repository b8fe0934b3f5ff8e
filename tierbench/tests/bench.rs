//! The benchmark's own tests, at small size.

use harness::runner::{PolicyKind, Scale, Topology};
use harness::tenants::build_fleet;
use sim_clock::Nanos;
use tierbench::probe::{Mode, Site};
use tierbench::report::{result_line, MetricDef, END_TO_END, PER_LAYER};
use tierbench::run::measure;
use tierbench::scenario::{
    fleet_config, fleet_sharded_config, rep, single_driver, single_setup, step_sliced, Size,
    WorkloadId,
};
use tiered_mem::TieredSystem;
use tiering_policies::{DriverConfig, DriverSession, ShardedSim, SimulationDriver};

const SEED: u64 = 77;
const SINGLE: [WorkloadId; 2] = [WorkloadId::Steady, WorkloadId::Churn];

fn stats_of(sys: &TieredSystem) -> String {
    format!("{:?}", sys.stats)
}

#[test]
fn sliced_steps_match_one_uninterrupted_run() {
    for id in SINGLE {
        let size = Size::small(id);
        let mut a = single_setup(id, SEED, size);
        let mut b = single_setup(id, SEED, size);
        a.sys.enable_tracing(1 << 12);
        b.sys.enable_tracing(1 << 12);

        let mut session = DriverSession::new(single_driver(size));
        let mut wls = vec![a.workload];
        step_sliced(
            &mut session,
            a.slice,
            &mut a.sys,
            &mut wls,
            a.policy.as_dyn(),
        );
        let sliced = session.finish(&mut a.sys);

        let mut wls = vec![b.workload];
        let whole =
            SimulationDriver::new(single_driver(size)).run(&mut b.sys, &mut wls, b.policy.as_dyn());

        assert_eq!(sliced.accesses, size.accesses, "{}", id.name());
        assert_eq!(sliced.accesses, whole.accesses, "{}", id.name());
        assert_eq!(sliced.makespan, whole.makespan, "{}", id.name());
        assert_eq!(stats_of(&a.sys), stats_of(&b.sys), "{}", id.name());
        assert_eq!(a.sys.trace.digest(), b.sys.trace.digest(), "{}", id.name());
    }
}

#[test]
fn fleet_barrier_steps_match_uninterrupted_tenant_runs() {
    // With admission off the barriers only slice each tenant's session, so
    // every tenant must end exactly as one uninterrupted classic run.
    let size = Size::small(WorkloadId::Fleet);
    let cfg = fleet_config(SEED, size, 2);
    let mut scfg = fleet_sharded_config(&cfg);
    scfg.admission.enabled = false;
    let sharded = ShardedSim::new(scfg, build_fleet(&cfg)).run();
    let mut classic = build_fleet(&cfg);
    for (s, o) in classic.iter_mut().zip(&sharded.outcomes) {
        let r = SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(cfg.millis),
            ..Default::default()
        })
        .run(&mut s.sys, &mut s.workloads, s.policy.as_mut());
        assert_eq!(r.accesses, o.result.accesses, "tenant {}", s.id);
        assert_eq!(s.sys.trace.digest(), o.digest, "tenant {}", s.id);
        assert_eq!(
            stats_of(&s.sys),
            stats_of(&sharded.shards[s.id as usize].sys),
            "tenant {}",
            s.id
        );
    }
}

#[test]
fn decorated_runs_match_undecorated_runs() {
    for id in WorkloadId::ALL {
        let size = Size::small(id);
        let plain = rep(id, SEED, size, None, 2);
        assert!(
            plain.checks.failures.is_empty(),
            "{:?}",
            plain.checks.failures
        );
        let mut modes = vec![Mode::Timed { every: 7 }];
        modes.extend(Site::ALL.map(|site| Mode::Delay { site, ns: 50 }));
        for mode in modes {
            let r = rep(id, SEED, size, Some(mode), 2);
            assert_eq!(
                r.sim.fingerprint,
                plain.sim.fingerprint,
                "{} diverged under {mode:?}",
                id.name()
            );
            assert_eq!(r.sim.counts, plain.sim.counts, "{}", id.name());
            assert!(r.checks.failures.is_empty(), "{:?}", r.checks.failures);
        }
    }
}

#[test]
fn timed_taps_see_every_layer_they_wrap() {
    let id = WorkloadId::Churn;
    let r = rep(id, SEED, Size::small(id), Some(Mode::Timed { every: 3 }), 1);
    let spans = r.taps[0].spans(0.0);
    let calls = |name: &str| {
        spans
            .iter()
            .find(|(s, _, _)| format!("{s:?}") == name)
            .map(|(_, _, n)| *n)
            .expect("span kind")
    };
    let accesses = r.sim.accesses;
    // One access in three is sampled.
    assert_eq!(calls("NextAccess"), accesses / 3);
    assert!(calls("OnAccess") > 0 && calls("Access") > 0);
    assert_eq!(
        calls("ScanFault") + calls("ProbeFault"),
        r.sim.counts.hint_faults,
        "every hint fault is timed"
    );
    assert!(calls("EvScan") > 0 && calls("EvDcsc") > 0);
}

#[test]
fn policy_under_test_is_what_policy_kind_builds() {
    for (id, topology) in [
        (WorkloadId::Steady, Topology::DramPmem),
        (WorkloadId::Churn, Topology::ThreeTier),
    ] {
        let size = Size::small(id);
        let scale = Scale {
            topology,
            ..Scale::default_scale()
        };
        let mut a = single_setup(id, SEED, size);
        let mut b = single_setup(id, SEED, size);
        let mut wls = vec![a.workload];
        SimulationDriver::new(single_driver(size)).run(&mut a.sys, &mut wls, a.policy.as_dyn());
        let mut boxed = PolicyKind::Chrono.build(&scale);
        let mut wls = vec![b.workload];
        SimulationDriver::new(single_driver(size)).run(&mut b.sys, &mut wls, boxed.as_mut());
        assert_eq!(stats_of(&a.sys), stats_of(&b.sys), "{}", id.name());
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (
                field("name").to_string(),
                field("unit").to_string(),
                field("better").to_string(),
            )
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WorkloadId::ALL.map(WorkloadId::name).to_vec());
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

#[test]
fn measured_runs_print_exactly_the_declared_metrics() {
    for id in WorkloadId::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = measure(id, SEED, Size::small(id), 0.0, trace, 2);
            assert!(out.checks.failures.is_empty(), "{:?}", out.checks.failures);
            let printed: Vec<MetricDef> = out.metrics.iter().map(|(d, _)| *d).collect();
            assert_eq!(printed, table.to_vec(), "{} trace={trace}", id.name());
            for (d, v) in &out.metrics {
                assert!(v.is_finite(), "{} {} = {v}", id.name(), d.name);
            }
        }
    }
}

#[test]
fn result_line_is_json_with_every_metric() {
    let line = result_line(true, 3, 0, &[(END_TO_END[0], 1.5), (END_TO_END[2], 0.25)]);
    let j = Json::parse(&line).expect("valid JSON");
    assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(3.0));
    let m = j.get("metrics").expect("metrics");
    let v = m.get("sim_acc_per_host_s").expect("metric");
    assert_eq!(v.get("value").and_then(Json::as_f64), Some(1.5));
    assert_eq!(v.get("unit").and_then(Json::as_str), Some("acc/host_s"));
}

/// A minimal JSON value, enough to read `BENCHMARK.json` and the result
/// line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value()? else {
                        return Err(format!("object key expected at byte {}", self.i));
                    };
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("',' or '}}' expected at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("',' or ']' expected at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            let c = *self.s.get(self.i + 1).ok_or("bad escape")?;
                            out.push(match c {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            self.i += 2;
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.i..])
                                .map_err(|e| e.to_string())?;
                            let ch = rest.chars().next().expect("non-empty");
                            out.push(ch);
                            self.i += ch.len_utf8();
                        }
                    }
                }
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}
