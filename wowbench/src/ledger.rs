//! The traced run: a per-layer ledger measured from outside the program.
//!
//! The served part repeats the untraced run's operation stream (same
//! seed, same phases) against one set-up, reading the server's counters
//! at the start and end of each stretch; during alternate one-second
//! blocks of the timed loop it also reads them after every action, and the
//! rate of those blocks against the others is the tracing overhead. Then
//! the same phases are replayed in process against a fresh copy of the
//! world, timing each layer's public entry points — `World` calls for the
//! core, `compile_form`/`form_predicate` for forms, `Database` calls for the
//! relational layer — and the writes are replayed on a bare durable
//! database under both sync policies. No span is recorded inside the
//! program; splits that need one are listed as gaps in the README.

use crate::clerk::{self, Deck, Qbf, QbfGen, Samples, Tally, Write, WriteGen, PAGE};
use crate::clock::{cpu, wall, Lat, Stamp};
use crate::setup::{self, shown, Student};
use crate::stats::{mean, ratio, spread};
use crate::workloads::{self, Phase, RunOut, Workload};
use crate::Metric;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wow_core::{SessionId, WinId, World, WorldConfig};
use wow_net::Client;
use wow_rel::db::Database;
use wow_rel::value::Value;
use wow_storage::wal::SyncPolicy;

/// Result of a traced run.
pub struct Ledger {
    /// Per-layer metrics, in the order of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Attempted, failed, violations (served and replayed).
    pub tally: Tally,
    /// Readable ledger lines.
    pub lines: Vec<String>,
}

/// Named counters read from the server's metrics registry.
#[derive(Debug, Default, Clone)]
struct Counters(BTreeMap<String, u64>);

/// Prefixes of the gauges a metrics dump sets from its own world; the
/// servers' other counters are process-wide.
const WORLD_GAUGES: &[&str] = &["exec.", "locks.", "pool.", "recovery.", "wal.", "world."];

impl Counters {
    /// Refresh the world-derived gauges with a metrics dump, then read the
    /// process-global registry the server shares with this process.
    fn read_one(c: &mut Client) -> BTreeMap<String, u64> {
        let _ = c.metrics_dump();
        wow_obs::metrics().snapshot().counters.into_iter().collect()
    }

    /// Both worlds' counters: the world-derived gauges of each, added.
    fn read(reads: &mut Client, writes: &mut Client) -> Counters {
        let a = Self::read_one(reads);
        let mut m = Self::read_one(writes);
        for (k, v) in a {
            if WORLD_GAUGES.iter().any(|p| k.starts_with(p)) {
                *m.entry(k).or_insert(0) += v;
            }
        }
        let par = wow_par::stats::snapshot();
        for (k, v) in par.rows() {
            m.insert(format!("par.{k}"), v);
        }
        Counters(m)
    }

    fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0) as f64
    }

    /// `self - base`, per counter.
    fn since(&self, base: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(base.0.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
        )
    }
}

/// Per-action counter reads in odd seconds of the timed loop, and the
/// action rate of odd (traced) against even (plain) seconds.
struct Blocks {
    t0: Instant,
    last: Instant,
    /// (actions, seconds) per block kind: [plain, traced].
    acc: [(f64, f64); 2],
    /// Per-block action rates, by kind.
    rates: [Vec<f64>; 2],
    block: u64,
    block_acc: (f64, f64),
    dumps: u64,
}

impl Blocks {
    fn new() -> Blocks {
        let now = Instant::now();
        Blocks {
            t0: now,
            last: now,
            acc: [(0.0, 0.0); 2],
            rates: [Vec::new(), Vec::new()],
            block: 0,
            block_acc: (0.0, 0.0),
            dumps: 0,
        }
    }

    fn kind(block: u64) -> usize {
        (block % 2) as usize
    }

    /// After one action: attribute it to the block it started in; in a
    /// traced block, read the counters.
    fn after(&mut self, c: &mut Client) {
        let started_block = self.last.duration_since(self.t0).as_secs();
        if started_block != self.block {
            let (n, s) = self.block_acc;
            if s > 0.0 {
                self.rates[Self::kind(self.block)].push(n / s);
            }
            self.block = started_block;
            self.block_acc = (0.0, 0.0);
        }
        if Self::kind(started_block) == 1 {
            let _ = Counters::read_one(c);
            self.dumps += 1;
        }
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        let k = Self::kind(started_block);
        self.acc[k].0 += 1.0;
        self.acc[k].1 += dt;
        self.block_acc.0 += 1.0;
        self.block_acc.1 += dt;
    }

    /// Traced over plain action rate.
    fn overhead_ratio(&self) -> f64 {
        ratio(
            ratio(self.acc[1].0, self.acc[1].1),
            ratio(self.acc[0].0, self.acc[0].1),
        )
    }
}

/// Layer timings from the in-process replay, microseconds of process CPU
/// time (the writes on both clocks: fsync is a wait, seen on the wall).
#[derive(Debug, Default)]
struct Replay {
    core: Samples,
    compile: Vec<f64>,
    synth: Vec<f64>,
    quel_lookup: Vec<f64>,
    quel_filter: Vec<f64>,
    index_page: Vec<f64>,
    get_row: Vec<f64>,
    push_build: Vec<f64>,
    write_commit: Vec<Lat>,
    write_never: Vec<Lat>,
    /// Index chunks fetched and rows returned by QBF lookups.
    lookup_chunks: u64,
    lookup_rows: u64,
    tally: Tally,
}

/// Process CPU microseconds since `t`.
fn us(t: Stamp) -> f64 {
    t.elapsed().cpu
}

/// The base table and primary-key index behind a key-ordered view.
fn base_of(view: &str) -> Option<(&'static str, &'static str)> {
    match view {
        "students" | "honor_roll" | "seniors" => Some(("student", "pk_student")),
        "courses" => Some(("course", "pk_course")),
        _ => None,
    }
}

/// Time `Database::index_scan_page` for the page after the window's first
/// key, then `get_row` for each rid it returns.
fn probe_rel_page(world: &mut World, win: WinId, r: &mut Replay) {
    let Ok(w) = world.window(win) else { return };
    let Some((table, pk)) = base_of(&w.view) else {
        return;
    };
    let Some(first) = w
        .cursor
        .page_rows()
        .first()
        .map(|(_, t)| t.values[0].clone())
    else {
        return;
    };
    let db = world.db_mut();
    let key = Value::encode_composite(&[first]);
    let t = Stamp::now();
    let Ok(entries) = db.index_scan_page(pk, Some(&key), PAGE) else {
        return;
    };
    r.index_page.push(us(t));
    let id = db.catalog().table(table).expect("base table").id;
    for (_, rid) in entries {
        let t = Stamp::now();
        let _ = black_box(db.get_row(id, rid));
        r.get_row.push(us(t));
    }
}

fn replay_browse(world: &mut World, sess: SessionId, seed: u64, count: usize, r: &mut Replay) {
    let mut views = Deck::new(seed, clerk::BROWSE_MIX);
    for _ in 0..count {
        let view = views.draw();
        let res = (|| -> wow_core::WowResult<()> {
            let t = Stamp::now();
            let win = world.open_window(sess, view, None)?;
            r.core.open.push(t.elapsed());
            compile_probe(world, win, r);
            probe_rel_page(world, win, r);
            for step in 0..10 {
                let t = Stamp::now();
                if step < 8 {
                    world.browse_next_page(win)?;
                } else {
                    world.browse_prev_page(win)?;
                }
                r.core.page.push(t.elapsed());
                probe_rel_page(world, win, r);
            }
            world.close_window(win)
        })();
        note(&mut r.tally, res, || format!("replayed browse {view}"));
    }
}

fn note(t: &mut Tally, res: wow_core::WowResult<()>, what: impl FnOnce() -> String) {
    t.attempted += 1;
    if let Err(e) = res {
        t.failed += 1;
        t.check(false, || format!("{} failed: {e}", what()));
    }
}

/// Time `compile_form` for an open window's view, as opening compiles it.
fn compile_probe(world: &World, win: WinId, r: &mut Replay) {
    let Ok(w) = world.window(win) else { return };
    let writable: Vec<bool> = match &w.upd {
        Some(u) => (0..w.schema.len()).map(|i| u.is_writable(i)).collect(),
        None => vec![false; w.schema.len()],
    };
    let t = Stamp::now();
    black_box(wow_forms::compiler::compile_form(
        &w.view, &w.view, &w.schema, &writable,
    ));
    r.compile.push(us(t));
}

fn replay_opens(world: &mut World, sess: SessionId, seed: u64, count: usize, r: &mut Replay) {
    let mut views = Deck::new(seed, clerk::BROWSE_MIX);
    for _ in 0..count {
        let view = views.draw();
        let res = (|| -> wow_core::WowResult<()> {
            let t = Stamp::now();
            let win = world.open_window(sess, view, None)?;
            r.core.open.push(t.elapsed());
            compile_probe(world, win, r);
            probe_rel_page(world, win, r);
            world.close_window(win)
        })();
        note(&mut r.tally, res, || format!("replayed open {view}"));
    }
}

/// The RETRIEVE a QBF entry stands for.
fn qbf_quel(q: &Qbf) -> String {
    let base = setup::STUDENTS_QUEL;
    match q {
        Qbf::Lookup(k) => format!("{base} WHERE s.sid = {k}"),
        Qbf::Filter(clerk::F_GPA, e) => format!("{base} WHERE s.gpa <= {}", &e[2..]),
        Qbf::Filter(_, pat) => format!("{base} WHERE s.sname LIKE \"{pat}\""),
    }
}

fn replay_qbf(
    world: &mut World,
    sess: SessionId,
    seed: u64,
    count: usize,
    students: &[Student],
    r: &mut Replay,
) {
    let win = world
        .open_window(sess, "students", None)
        .expect("open students");
    let mut gen = QbfGen::new(seed, students);
    for _ in 0..count {
        let q = gen.next(students);
        let (field, text) = match &q {
            Qbf::Lookup(k) => (clerk::F_SID as usize, k.to_string()),
            Qbf::Filter(f, e) => (*f as usize, e.clone()),
        };
        let res = (|| -> wow_core::WowResult<()> {
            let t = Stamp::now();
            world.enter_query(win)?;
            world.window_mut(win)?.form.set_text(field, &text);
            let core_before_apply = t.elapsed();
            // Predicate synthesis, timed on its own outside the core span.
            {
                let w = world.window(win)?;
                let (spec, entries) = (w.form.spec.clone(), w.form.texts());
                let t = Stamp::now();
                let _ = black_box(wow_forms::qbf::form_predicate(&spec, &entries));
                r.synth.push(us(t));
            }
            let probes0 = world.db().counters().index_probes;
            let t = Stamp::now();
            world.apply_query(win)?;
            let core = core_before_apply + t.elapsed();
            let chunks = world.db().counters().index_probes - probes0;
            let rows = world.window(win)?.cursor.page_rows().len() as u64;
            match q {
                Qbf::Lookup(_) => {
                    r.core.lookup.push(core);
                    r.lookup_chunks += chunks;
                    r.lookup_rows += rows;
                }
                Qbf::Filter(..) => r.core.filter.push(core),
            }
            let t = Stamp::now();
            world.browse_next_page(win)?;
            r.core.page.push(t.elapsed());
            probe_rel_page(world, win, r);
            world.clear_query(win)?;
            let src = qbf_quel(&q);
            let t = Stamp::now();
            black_box(world.db_mut().run(&src).map_err(wow_core::WowError::from)?);
            match q {
                Qbf::Lookup(_) => r.quel_lookup.push(us(t)),
                Qbf::Filter(..) => r.quel_filter.push(us(t)),
            }
            Ok(())
        })();
        note(&mut r.tally, res, || format!("replayed QBF {q:?}"));
    }
    let _ = world.close_window(win);
}

/// Switch a database's WAL between sync policies.
fn set_sync(db: &mut Database, policy: SyncPolicy) {
    if let Some(mut wal) = db.take_wal() {
        wal.set_sync_policy(policy);
        db.attach_wal(wal);
    }
}

/// One write on the bare database by key, timed from `begin` to `commit`.
/// Returns the time, and the inverse write.
fn rel_write(db: &mut Database, w: &RelWrite) -> (Lat, RelWrite) {
    let table = db.catalog().table("student").expect("student").id;
    let rid_of = |db: &mut Database, sid: i64| {
        db.index_lookup("pk_student", &[Value::Int(sid)])
            .ok()
            .and_then(|v| v.first().copied())
    };
    match w {
        RelWrite::Set(sid, col, v) => {
            let rid = rid_of(db, *sid).expect("row to edit");
            let mut row = db.get_row(table, rid).expect("get").expect("row").values;
            let old = std::mem::replace(&mut row[*col], v.clone());
            let t = Stamp::now();
            db.begin().expect("begin");
            db.update_rid("student", rid, row).expect("update");
            db.commit().expect("commit");
            (t.elapsed(), RelWrite::Set(*sid, *col, old))
        }
        RelWrite::Insert(values) => {
            let sid = match values[0] {
                Value::Int(k) => k,
                _ => unreachable!("INT key"),
            };
            let t = Stamp::now();
            db.begin().expect("begin");
            db.insert("student", values.clone()).expect("insert");
            db.commit().expect("commit");
            (t.elapsed(), RelWrite::Delete(sid))
        }
        RelWrite::Delete(sid) => {
            let rid = rid_of(db, *sid).expect("row to delete");
            let old = db.get_row(table, rid).expect("get").expect("row").values;
            let t = Stamp::now();
            db.begin().expect("begin");
            db.delete_rid("student", rid).expect("delete");
            db.commit().expect("commit");
            (t.elapsed(), RelWrite::Insert(old))
        }
    }
}

/// A write at the relational layer, by key.
#[derive(Debug, Clone)]
enum RelWrite {
    Set(i64, usize, Value),
    Insert(Vec<Value>),
    Delete(i64),
}

/// Replay a write on the bare database: forward under the served policy
/// (fsync per commit) — the `rel.write_us` sample — then back and forward
/// again with fsync off, the second forward being the `Never` sample.
fn replay_rel_write(db: &mut Database, w: &RelWrite, r: &mut Replay) {
    let (t, inverse) = rel_write(db, w);
    r.write_commit.push(t);
    set_sync(db, SyncPolicy::Never);
    let _ = rel_write(db, &inverse);
    let (t, _) = rel_write(db, w);
    r.write_never.push(t);
    set_sync(db, SyncPolicy::Commit);
}

fn replay_commits(
    world: &mut World,
    rel: &mut Database,
    seed: u64,
    (first_key, wall): (i64, i64),
    count: usize,
    memo: bool,
    r: &mut Replay,
) {
    let watcher = world.open_session();
    let mut watch = Vec::new();
    for view in clerk::WATCH_VIEWS {
        watch.push(
            world
                .open_window(watcher, view, None)
                .expect("watch window"),
        );
    }
    let editor = world.open_session();
    let win = world
        .open_window(editor, "students", None)
        .expect("editor window");
    world.enable_refresh_events(true);
    let mut gen = WriteGen::new(seed, first_key);
    let mut forward = true;
    for _ in 0..count {
        let current = world
            .current_row(win)
            .ok()
            .flatten()
            .map(|t| shown(&t.values));
        let w = gen.next(current.as_deref());
        let sid: i64 = current
            .as_ref()
            .and_then(|c| c[0].parse().ok())
            .unwrap_or(i64::MIN);
        let res = (|| -> wow_core::WowResult<()> {
            let _ = world.take_refresh_events();
            let t = Stamp::now();
            let relw = match &w {
                Write::Edit(field, text) => {
                    world.enter_edit(win)?;
                    world.window_mut(win)?.form.set_text(*field as usize, text);
                    world.commit(win)?;
                    let v = if *field == clerk::F_YEAR {
                        Value::Int(text.parse().expect("year"))
                    } else {
                        Value::Float(text.parse().expect("gpa"))
                    };
                    RelWrite::Set(sid, *field as usize, v)
                }
                Write::Insert(key, name, year, gpa) => {
                    world.enter_insert(win)?;
                    let form = &mut world.window_mut(win)?.form;
                    form.set_text(clerk::F_SID as usize, &key.to_string());
                    form.set_text(clerk::F_SNAME as usize, name);
                    form.set_text(clerk::F_YEAR as usize, &year.to_string());
                    form.set_text(clerk::F_GPA as usize, gpa);
                    world.commit(win)?;
                    let mut values = vec![
                        Value::Int(*key),
                        Value::text(name.clone()),
                        Value::Int(*year),
                        Value::Float(gpa.parse().expect("gpa")),
                    ];
                    if memo {
                        values.push(Value::Null);
                    }
                    RelWrite::Insert(values)
                }
                Write::Delete => {
                    world.delete_current(win)?;
                    RelWrite::Delete(sid)
                }
            };
            r.core.commit.push(t.elapsed());
            for ev in world.take_refresh_events() {
                if !watch.contains(&ev.win) {
                    continue;
                }
                let t = Stamp::now();
                let screen = wow_net::screenful_of(world, ev.win)?;
                let push = wow_net::Push::WindowRefreshed {
                    win: ev.win.0,
                    kind: wow_net::PushKind::Delta,
                    generation: ev.generation,
                    screen,
                };
                black_box(push.encode());
                r.push_build.push(us(t));
            }
            replay_rel_write(rel, &relw, r);
            let moved = if forward {
                world.browse_next(win)?
            } else {
                world.browse_prev(win)?
            };
            let now = world.current_row(win)?.map(|t| shown(&t.values));
            if clerk::must_turn(forward, moved, now.as_deref(), wall) {
                forward = !forward;
                if forward {
                    world.browse_next(win)?;
                } else {
                    world.browse_prev(win)?;
                }
            }
            Ok(())
        })();
        if res.is_err() {
            let _ = world.cancel_mode(win);
        }
        note(&mut r.tally, res, || format!("replayed write {w:?}"));
    }
    world.enable_refresh_events(false);
    let _ = world.close_session(editor);
    let _ = world.close_session(watcher);
}

/// Replay a run's phases in process: reads on one fresh copy of the
/// world, commits on another, as the served run split them.
fn replay(w: Workload, plan: &[Phase], tmp: &Path) -> Replay {
    let mut r = Replay::default();
    let dirs = [
        tmp.join("replay_read"),
        tmp.join("replay_write"),
        tmp.join("rel"),
    ];
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let open = |dir: &Path| {
        let loaded = setup::load_durable(w.shape(), dir);
        let mut world = World::open_durable(WorldConfig::default(), dir).expect("replay world");
        wow_workload::university::define_views(&mut world);
        (world, loaded.students)
    };
    let (mut reads, students) = open(&dirs[0]);
    let (mut writes, _) = open(&dirs[1]);
    setup::load_durable(w.shape(), &dirs[2]);
    let mut rel = Database::open_durable(&dirs[2]).expect("bare durable database");
    let memo = w.shape().sizes().memo_bytes > 0;
    let sess = reads.open_session();
    for phase in plan {
        match *phase {
            Phase::Browse { seed, count } => replay_browse(&mut reads, sess, seed, count, &mut r),
            Phase::Opens { seed, count } => replay_opens(&mut reads, sess, seed, count, &mut r),
            Phase::Qbf { seed, count } => {
                replay_qbf(&mut reads, sess, seed, count, &students, &mut r)
            }
            Phase::Commit {
                seed,
                first_key,
                wall,
                count,
            } => replay_commits(
                &mut writes,
                &mut rel,
                seed,
                (first_key, wall),
                count,
                memo,
                &mut r,
            ),
        }
    }
    drop(reads);
    drop(writes);
    drop(rel);
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    r
}

/// Mean, or 0 without samples. Means, unlike medians, add up: the layer
/// shares of an action's time are shares of the same total.
fn avg(v: &[f64]) -> f64 {
    mean(v).unwrap_or(0.0)
}

/// Mean on the CPU clock.
fn avgc(v: &[Lat]) -> f64 {
    avg(&cpu(v))
}

/// The end-to-end metric each per-layer metric should move, and the
/// workload where its layer does most of the work.
const MOVES: &[(&str, &str)] = &[
    ("net.page_wire_us", "page_cpu_mean_us on browse"),
    ("net.commit_wire_us", "commit_cpu_mean_us on commit_push"),
    (
        "net.requests_per_action",
        "actions_per_cpu_s on every workload",
    ),
    ("net.push_build_us", "push_cpu_mean_us on commit_push"),
    ("net.pushes_per_commit", "push_cpu_p90_us on commit_push"),
    ("net.coalesced_share", "push_cpu_p90_us on commit_push"),
    ("net.push_dropped", "push_cpu_p90_us on commit_push"),
    ("core.open_us", "open_cpu_mean_us on browse"),
    ("core.page_us", "page_cpu_mean_us on browse"),
    ("core.lookup_us", "lookup_cpu_mean_ms on qbf"),
    ("core.filter_us", "filter_cpu_mean_ms on qbf"),
    ("core.commit_us", "commit_cpu_mean_us on commit_push"),
    (
        "core.propagate_us",
        "commit_cpu_mean_us and push_cpu_mean_us on commit_push",
    ),
    ("core.delta_share", "push_cpu_mean_us on commit_push"),
    (
        "core.windows_refreshed_per_commit",
        "push_cpu_mean_us on commit_push",
    ),
    (
        "forms.compile_us",
        "open_cpu_mean_us on browse (predicted negligible)",
    ),
    (
        "forms.qbf_synth_us",
        "lookup_cpu_mean_ms and filter_cpu_mean_ms on qbf (predicted negligible)",
    ),
    (
        "views.delta_rows_per_commit",
        "push_cpu_mean_us on commit_push",
    ),
    (
        "rel.index_page_us",
        "page_cpu_mean_us and open_cpu_mean_us on browse, lookup_cpu_mean_ms on qbf",
    ),
    (
        "rel.get_row_us",
        "page_cpu_mean_us and open_cpu_mean_us on browse, lookup_cpu_mean_ms on qbf",
    ),
    (
        "rel.quel_us",
        "lookup_cpu_mean_ms and filter_cpu_mean_ms on qbf",
    ),
    ("rel.rows_examined_per_row", "lookup_cpu_mean_ms on qbf"),
    ("rel.write_us", "commit_cpu_mean_us on commit_push"),
    ("rel.load_us_per_row", "setup_s on every workload"),
    (
        "storage.pool_hit_ratio",
        "lookup_cpu_mean_ms and filter_cpu_mean_ms on qbf (about 1 on browse)",
    ),
    (
        "storage.misses_per_action",
        "lookup_cpu_mean_ms and filter_cpu_mean_ms on qbf (about 0 on browse)",
    ),
    (
        "storage.evictions_per_action",
        "lookup_cpu_mean_ms and filter_cpu_mean_ms on qbf (about 0 on browse)",
    ),
    (
        "storage.fsync_us",
        "commit wall time on commit_push (a wait: off the CPU clock of commit_cpu_mean_us)",
    ),
    (
        "storage.fsyncs_per_commit",
        "commit_cpu_mean_us on commit_push",
    ),
    (
        "storage.wal_bytes_per_commit",
        "commit_cpu_mean_us on commit_push",
    ),
    ("storage.checkpoint_ms", "commit_cpu_p90_us on commit_push"),
    ("storage.checkpoints", "commit_cpu_p90_us on commit_push"),
    (
        "storage.replay_us_per_op",
        "recover_cpu_ms on every workload",
    ),
    (
        "storage.disk_bytes_per_row_byte",
        "setup_s and recover_cpu_ms on every workload",
    ),
    (
        "par.parallel_share",
        "filter_cpu_mean_ms on qbf, page_cpu_p90_us on browse",
    ),
    ("obs.overhead_ratio", "actions_per_cpu_s on every workload"),
];

/// The traced run of a workload.
pub fn run(w: Workload, seed: u64, seconds: u64, tmp: &Path) -> Ledger {
    let (worlds, mut c, setup) = workloads::setup_worlds(w, tmp);
    let mut cw = Client::connect(worlds.write.addr).expect("write-world connection");
    let mut run = RunOut::with_setups(&setup[1..]);
    let mut rec = setup::Recoverer::new(w.shape(), &tmp.join("crash"), workloads::stream(seed, 4));
    let c0 = Counters::read(&mut c, &mut cw);
    let mut marks = Vec::new();
    // The timed loop's clock starts when `measure` says the loop starts.
    let blocks = RefCell::new(Blocks::new());
    workloads::measure(
        w,
        &worlds,
        &mut c,
        (seed, seconds),
        &mut run,
        &mut rec,
        (false, tmp),
        &mut |c| {
            if marks.is_empty() {
                *blocks.borrow_mut() = Blocks::new();
            }
            marks.push(Counters::read(c, &mut cw));
        },
        &mut |c| blocks.borrow_mut().after(c),
    );
    let blocks = blocks.into_inner();
    let c2 = Counters::read(&mut c, &mut cw);
    let _ = cw.goodbye();
    let (load, rows_loaded) = (worlds.read.load, worlds.read.rows_loaded);
    let rec = workloads::finish(worlds, c, rec, &mut run);

    let mut rp = replay(w, &run.plan, tmp);
    let main = marks[1].since(&marks[0]);
    let all = c2.since(&c0);
    let s = &run.samples;
    let core = &rp.core;
    let actions = run.actions as f64;
    // Requests the counter reads themselves made: one per read in the
    // loop, two for the read that closes it.
    let reads = blocks.dumps as f64 + 2.0;
    let commits = all.get("world.commits");
    let refreshes = all.get("world.delta_refreshes") + all.get("world.full_refreshes");
    let pool_main = main.get("pool.hits") + main.get("pool.misses");
    let par_all: f64 = ["scan", "join", "fanout"]
        .iter()
        .map(|k| main.get(&format!("par.{k}_parallel")) + main.get(&format!("par.{k}_serial")))
        .sum();
    let par_on: f64 = ["scan", "join", "fanout"]
        .iter()
        .map(|k| main.get(&format!("par.{k}_parallel")))
        .sum();
    let write = avgc(&rp.write_commit);
    let fsync = avg(&wall(&rp.write_commit)) - avg(&wall(&rp.write_never));
    let quel: Vec<f64> = rp
        .quel_lookup
        .iter()
        .chain(&rp.quel_filter)
        .copied()
        .collect();

    let m = vec![
        Metric::new("net.page_wire_us", avgc(&s.page) - avgc(&core.page), "us"),
        Metric::new(
            "net.commit_wire_us",
            avgc(&s.commit) - avgc(&core.commit),
            "us",
        ),
        Metric::new(
            "net.requests_per_action",
            ratio(main.get("net.requests") - reads, actions),
            "count",
        ),
        Metric::new("net.push_build_us", avg(&rp.push_build), "us"),
        Metric::new(
            "net.pushes_per_commit",
            ratio(all.get("net.pushes"), commits),
            "count",
        ),
        Metric::new(
            "net.coalesced_share",
            ratio(
                all.get("net.coalesced"),
                all.get("net.pushes") + all.get("net.coalesced"),
            ),
            "ratio",
        ),
        Metric::new("net.push_dropped", all.get("net.push_dropped"), "count"),
        Metric::new("core.open_us", avgc(&core.open), "us"),
        Metric::new("core.page_us", avgc(&core.page), "us"),
        Metric::new("core.lookup_us", avgc(&core.lookup), "us"),
        Metric::new("core.filter_us", avgc(&core.filter), "us"),
        Metric::new("core.commit_us", avgc(&core.commit), "us"),
        Metric::new("core.propagate_us", avgc(&core.commit) - write, "us"),
        Metric::new(
            "core.delta_share",
            ratio(all.get("world.delta_refreshes"), refreshes),
            "ratio",
        ),
        Metric::new(
            "core.windows_refreshed_per_commit",
            ratio(all.get("world.windows_refreshed"), commits),
            "count",
        ),
        Metric::new("forms.compile_us", avg(&rp.compile), "us"),
        Metric::new("forms.qbf_synth_us", avg(&rp.synth), "us"),
        Metric::new(
            "views.delta_rows_per_commit",
            ratio(all.get("world.delta_rows"), commits),
            "count",
        ),
        Metric::new("rel.index_page_us", avg(&rp.index_page), "us"),
        Metric::new("rel.get_row_us", avg(&rp.get_row), "us"),
        Metric::new("rel.quel_us", avg(&quel), "us"),
        Metric::new(
            "rel.rows_examined_per_row",
            ratio(
                2.0 * PAGE as f64 * rp.lookup_chunks as f64,
                rp.lookup_rows as f64,
            ),
            "count",
        ),
        Metric::new("rel.write_us", write, "us"),
        Metric::new(
            "rel.load_us_per_row",
            ratio(load.cpu, rows_loaded as f64),
            "us",
        ),
        Metric::new(
            "storage.pool_hit_ratio",
            ratio(main.get("pool.hits"), pool_main),
            "ratio",
        ),
        Metric::new(
            "storage.misses_per_action",
            ratio(main.get("pool.misses"), actions),
            "count",
        ),
        Metric::new(
            "storage.evictions_per_action",
            ratio(main.get("pool.evictions"), actions),
            "count",
        ),
        Metric::new("storage.fsync_us", fsync, "us"),
        Metric::new(
            "storage.fsyncs_per_commit",
            ratio(all.get("wal.flushes"), commits),
            "count",
        ),
        Metric::new(
            "storage.wal_bytes_per_commit",
            ratio(all.get("wal.bytes_written"), commits),
            "B",
        ),
        Metric::new("storage.checkpoint_ms", rec.checkpoint_ms, "ms"),
        Metric::new(
            "storage.checkpoints",
            all.get("recovery.checkpoints"),
            "count",
        ),
        Metric::new(
            "storage.replay_us_per_op",
            ratio(avg(&rec.ms) * 1e3, rec.replayed_ops as f64),
            "us",
        ),
        Metric::new(
            "storage.disk_bytes_per_row_byte",
            ratio(rec.disk_bytes as f64, rec.row_bytes as f64),
            "ratio",
        ),
        Metric::new("par.parallel_share", ratio(par_on, par_all), "ratio"),
        Metric::new("obs.overhead_ratio", blocks.overhead_ratio(), "ratio"),
    ];

    let mut lines = Vec::new();
    let share = |part: f64, whole: f64| 100.0 * ratio(part, whole);
    let row = |lines: &mut Vec<String>, action: &str, e2e: f64, core: f64, below: String| {
        lines.push(format!(
            "{action:<7} e2e {e2e:>10.1}us  core {core:>10.1}us ({:>5.1}%)  wire {:>9.1}us  {below}",
            share(core, e2e),
            e2e - core
        ));
    };
    row(
        &mut lines,
        "open",
        avgc(&s.open),
        avgc(&core.open),
        format!("forms.compile {:.1}us", avg(&rp.compile)),
    );
    row(
        &mut lines,
        "page",
        avgc(&s.page),
        avgc(&core.page),
        format!(
            "rel.index_page {:.1}us + {}x rel.get_row {:.2}us = {:.1}% of core",
            avg(&rp.index_page),
            PAGE,
            avg(&rp.get_row),
            share(
                avg(&rp.index_page) + PAGE as f64 * avg(&rp.get_row),
                avgc(&core.page)
            )
        ),
    );
    for (name, e2e, c, q) in [
        ("lookup", &s.lookup, &core.lookup, &rp.quel_lookup),
        ("filter", &s.filter, &core.filter, &rp.quel_filter),
    ] {
        row(
            &mut lines,
            name,
            avgc(e2e),
            avgc(c),
            format!(
                "rel.quel {:.1}us ({:.1}% of core), forms.qbf_synth {:.2}us",
                avg(q),
                share(avg(q), avgc(c)),
                avg(&rp.synth)
            ),
        );
    }
    row(
        &mut lines,
        "commit",
        avgc(&s.commit),
        avgc(&core.commit),
        format!(
            "rel.write {:.1}us ({:.1}% of core; fsync {:.1}us), propagate {:.1}us",
            write,
            share(write, avgc(&core.commit)),
            fsync,
            avgc(&core.commit) - write
        ),
    );
    let ppc = ratio(all.get("net.pushes"), commits);
    lines.push(format!(
        "push    e2e {:>10.1}us  {:.2} pushes/commit x net.push_build {:.1}us = {:.1}us built under the world lock",
        avgc(&s.push),
        ppc,
        avg(&rp.push_build),
        ppc * avg(&rp.push_build)
    ));
    for (kind, rates) in ["plain", "traced"].iter().zip(&blocks.rates) {
        if let Some(sp) = spread(rates) {
            lines.push(format!(
                "{kind} one-second blocks: {} blocks, mean {:.1} actions/s, IQR {:.1}% of median",
                rates.len(),
                avg(rates),
                100.0 * sp
            ));
        }
    }
    run.tally.absorb(std::mem::take(&mut rp.tally));
    Ledger {
        metrics: m,
        tally: run.tally,
        lines,
    }
}

/// Print the ledger, then each per-layer metric with what it should move.
pub fn print(l: &Ledger) {
    for line in &l.lines {
        println!("# ledger {line}");
    }
    for m in &l.metrics {
        let moves = MOVES
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or("", |(_, t)| t);
        println!(
            "# layer {:<34} {:>14.3} {:<6} -> {moves}",
            m.name, m.value, m.unit
        );
    }
}
