//! The three workloads: closed loops against two served worlds (one only
//! ever read, one written), the top-up slices that give every action enough
//! samples, and the end-of-run correctness checks.

use crate::clerk::{self, Deck, Editor, EditorLog, PageLog, QbfGen, Samples, Tally};
use crate::clock::{Lat, Stamp};
use crate::setup::{self, Recoverer, Served, Shape, Student};
use crate::stats::samples_needed;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wow_net::Client;
use wow_workload::DetRng;

/// A workload's name and the world it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only browsing of a world that fits the pool.
    Browse,
    /// Read-only query-by-form on a world larger than the pool.
    Qbf,
    /// An editor committing beside a watcher of eight windows.
    CommitPush,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "browse" => Some(Workload::Browse),
            "qbf" => Some(Workload::Qbf),
            "commit_push" => Some(Workload::CommitPush),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Qbf => "qbf",
            Workload::CommitPush => "commit_push",
        }
    }

    /// The world it runs against.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Qbf => Shape::Memo,
            _ => Shape::Registrar,
        }
    }
}

/// Samples a run collects at least, per action: ten times what a p90
/// needs under the ten-beyond rule for open and page, eight times for
/// commit and push, once for lookup and filter (each costs up to a
/// whole-index walk).
pub fn floor(action: Action) -> usize {
    let p90 = samples_needed(90.0);
    match action {
        Action::Browse => 10 * p90,
        Action::Commit => 8 * p90,
        Action::Qbf => p90,
    }
}

/// Kinds of top-up, by the actions they sample.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// Open and page.
    Browse,
    /// Commit and push.
    Commit,
    /// Lookup and filter.
    Qbf,
}

/// Derive an independent stream seed from the run seed.
pub fn stream(seed: u64, salt: u64) -> u64 {
    let mut r = DetRng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64()
}

/// How long or how much a loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// This much wall time of the loop's own, not counting its hook.
    Time(Duration),
    /// This many actions.
    Count(usize),
}

impl Until {
    fn more(self, done: usize, started: Instant, hooked: Lat) -> bool {
        match self {
            Until::Time(d) => {
                started.elapsed().as_secs_f64() * 1e6 - hooked.wall < d.as_secs_f64() * 1e6
            }
            Until::Count(n) => done < n,
        }
    }
}

/// Called after every completed action of a loop with the connection
/// the action used; the traced run reads counters through it, and loops
/// take their recovery reopens and top-up slices in it. Its time is not
/// part of the loop's.
pub type Hook<'a> = &'a mut dyn FnMut(&mut Client);

/// Run a hook, adding its time to `spent`.
fn timed_hook(hook: Hook<'_>, c: &mut Client, spent: &mut Lat) {
    let t = Stamp::now();
    hook(c);
    *spent = *spent + t.elapsed();
}

/// Record a loop's span, less the time its hook took.
fn close_span(out: &mut LoopOut, t: Stamp, hooked: Lat) {
    let span = t.elapsed();
    out.secs = (span.wall - hooked.wall) / 1e6;
    out.cpu_secs = (span.cpu - hooked.cpu) / 1e6;
}

/// Result of one closed loop.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Latency samples.
    pub samples: Samples,
    /// Actions completed.
    pub actions: u64,
    /// Wall time of the loop, seconds.
    pub secs: f64,
    /// Process CPU time of the loop, seconds.
    pub cpu_secs: f64,
    /// Attempted, failed, violations.
    pub tally: Tally,
}

/// Browse loop: one connection, each action on one of the four browse
/// views, drawn from a deck that may live across calls.
pub fn browse_loop(
    c: &mut Client,
    views: &mut Deck<&'static str>,
    until: Until,
    log: &mut PageLog,
    hook: Hook<'_>,
) -> LoopOut {
    let mut out = LoopOut::default();
    let (t, mut hooked) = (Stamp::now(), Lat::default());
    let started = Instant::now();
    let mut done = 0;
    while until.more(done, started, hooked) {
        let view = views.draw();
        out.tally.attempted += 1;
        match clerk::browse_action(c, view, &mut out.samples, log, &mut out.tally) {
            Ok(()) => {
                out.actions += 1;
                timed_hook(hook, c, &mut hooked);
            }
            Err(e) => {
                out.tally.failed += 1;
                out.tally
                    .check(false, || format!("browse {view} failed: {e}"));
            }
        }
        done += 1;
    }
    close_span(&mut out, t, hooked);
    out
}

/// Bare open/close pairs (a top-up for opens), the views drawn from a
/// deck that lives across calls.
fn opens_loop(
    c: &mut Client,
    views: &mut Deck<&'static str>,
    count: usize,
    hook: Hook<'_>,
) -> LoopOut {
    let mut out = LoopOut::default();
    for _ in 0..count {
        let view = views.draw();
        out.tally.attempted += 1;
        let t = Stamp::now();
        let opened = c.open_window(view, false);
        let lat = t.elapsed();
        match opened.and_then(|(win, _, _)| c.close_window(win)) {
            Ok(()) => {
                out.samples.open.push(lat);
                out.actions += 1;
                hook(c);
            }
            Err(e) => {
                out.tally.failed += 1;
                out.tally
                    .check(false, || format!("open {view} failed: {e}"));
            }
        }
    }
    out
}

/// QBF loop: one connection with one `students` window; lookups and
/// filters alternate.
pub fn qbf_loop(
    c: &mut Client,
    gen: &mut QbfGen,
    students: &[Student],
    until: Until,
    hook: Hook<'_>,
) -> LoopOut {
    let mut out = LoopOut::default();
    let (win, _, _) = match c.open_window("students", false) {
        Ok(w) => w,
        Err(e) => {
            out.tally.attempted += 1;
            out.tally.failed += 1;
            out.tally
                .check(false, || format!("open students failed: {e}"));
            return out;
        }
    };
    let (t, mut hooked) = (Stamp::now(), Lat::default());
    let started = Instant::now();
    let mut done = 0;
    while until.more(done, started, hooked) {
        let q = gen.next(students);
        out.tally.attempted += 1;
        match clerk::qbf_action(c, win, &q, students, &mut out.samples, &mut out.tally) {
            Ok(()) => {
                out.actions += 1;
                timed_hook(hook, c, &mut hooked);
            }
            Err(e) => {
                out.tally.failed += 1;
                out.tally.check(false, || format!("QBF {q:?} failed: {e}"));
                let _ = c.cancel_mode(win);
                let _ = c.clear_query(win);
            }
        }
        done += 1;
    }
    close_span(&mut out, t, hooked);
    let _ = c.close_window(win);
    out
}

/// Keep whole rounds of a generator's filters only, so every selectivity
/// stratum weighs the same in the filter figures whatever a loop managed.
fn whole_filter_rounds(samples: &mut Samples) {
    let whole = samples.filter.len() / clerk::FILTER_ROUND * clerk::FILTER_ROUND;
    samples.filter.truncate(whole);
}

/// An editor on this thread and a watcher on another, two connections to
/// one served world. It can run in several stretches: between them the
/// watcher waits idle. Push samples come from the watcher's `students`
/// windows once it is finished.
pub struct CommitRig {
    editor: Result<Editor, String>,
    watcher: std::thread::JoinHandle<wow_core::WowResult<(Client, Vec<clerk::Watched>)>>,
    stop: Arc<AtomicBool>,
    log: EditorLog,
    seed: u64,
    first_key: i64,
    wall: i64,
    attempted: usize,
}

impl CommitRig {
    /// Connect the watcher, let it open its windows, then connect the
    /// editor. Inserts use keys from `first_key` on; keys at or past `wall`
    /// were inserted during the run.
    pub fn start(addr: SocketAddr, seed: u64, first_key: i64, wall: i64) -> CommitRig {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let watcher = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || clerk::watch(addr, ready_tx, stop))
        };
        let editor = ready_rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|e| e.to_string())
            .and_then(|()| Editor::open(addr, seed, first_key, wall).map_err(|e| e.to_string()));
        CommitRig {
            editor,
            watcher,
            stop,
            log: EditorLog::default(),
            seed,
            first_key,
            wall,
            attempted: 0,
        }
    }

    /// One stretch of editor actions.
    pub fn run(&mut self, until: Until, hook: Hook<'_>) -> LoopOut {
        let mut out = LoopOut::default();
        let ed = match &mut self.editor {
            Ok(ed) => ed,
            Err(e) => {
                out.tally.attempted += 1;
                out.tally.failed += 1;
                out.tally
                    .check(false, || format!("editor could not start: {e}"));
                return out;
            }
        };
        let (t, mut hooked) = (Stamp::now(), Lat::default());
        let started = Instant::now();
        let mut done = 0;
        while until.more(done, started, hooked) {
            out.tally.attempted += 1;
            match ed.act(&mut out.samples, &mut self.log) {
                Ok(()) => {
                    out.actions += 1;
                    timed_hook(hook, &mut ed.c, &mut hooked);
                }
                Err(e) => {
                    out.tally.failed += 1;
                    out.tally
                        .check(false, || format!("editor action failed: {e}"));
                    let _ = ed.c.cancel_mode(ed.win);
                }
            }
            done += 1;
        }
        close_span(&mut out, t, hooked);
        self.attempted += done;
        out
    }

    /// Stop both clerks, check what the watcher saw, and return the push
    /// samples with the phase the rig ran.
    pub fn finish(self) -> (LoopOut, Phase) {
        let mut out = LoopOut::default();
        if let Ok(ed) = self.editor {
            let _ = ed.c.goodbye();
        }
        self.stop.store(true, Ordering::SeqCst);
        match self.watcher.join().expect("watcher thread panicked") {
            Ok((mut c, watched)) => {
                out.tally.check(clerk::generations_monotone(&watched), || {
                    "push generations went backwards".into()
                });
                let (push, complete) = clerk::push_samples(&watched, &self.log.sent);
                out.tally.check(complete, || {
                    "a students window did not end on the last commit's generation".into()
                });
                out.samples.push = push;
                check_watched(&mut c, &watched, &mut out.tally);
                let _ = c.goodbye();
            }
            Err(e) => {
                out.tally.failed += 1;
                out.tally.check(false, || format!("watcher failed: {e}"));
            }
        }
        let phase = Phase::Commit {
            seed: self.seed,
            first_key: self.first_key,
            wall: self.wall,
            count: self.attempted,
        };
        (out, phase)
    }
}

/// After the editor stops: each watcher window's last pushed screenful
/// equals the server's screenful for it, and equals a fresh query of the
/// final state (a contiguous run of the view in key order; a fresh window
/// for the join view).
fn check_watched(c: &mut Client, watched: &[clerk::Watched], tally: &mut Tally) {
    let mut fresh: std::collections::BTreeMap<String, Vec<Vec<String>>> = Default::default();
    for w in watched {
        let Some(last) = &w.last else { continue };
        let last_rows = clerk::rows_of(last);
        match c.screen(w.win) {
            Ok(now) => tally.check(clerk::rows_of(&now) == last_rows, || {
                format!(
                    "window {} ({}) was not pushed its final screenful",
                    w.win, w.view
                )
            }),
            Err(e) => tally.check(false, || format!("screen of {} failed: {e}", w.win)),
        }
        if clerk::key_ordered(&w.view) {
            tally.check(clerk::key_ascending(last), || {
                format!("{} window is not key-ascending", w.view)
            });
            let rows = fresh.entry(w.view.clone()).or_insert_with(|| {
                let mut rows: Vec<Vec<wow_rel::value::Value>> = c
                    .quel(clerk::view_quel(&w.view))
                    .map(|(_, r)| r)
                    .unwrap_or_default();
                rows.sort_by_key(|r| match r[0] {
                    wow_rel::value::Value::Int(k) => k,
                    _ => i64::MIN,
                });
                rows.iter().map(|r| setup::shown(r)).collect()
            });
            let ok = last_rows.is_empty()
                || rows
                    .iter()
                    .position(|r| *r == last_rows[0])
                    .is_some_and(|i| rows[i..].starts_with(&last_rows));
            tally.check(ok, || {
                format!("{} window disagrees with a fresh query", w.view)
            });
        } else {
            match c.open_window(&w.view, false) {
                Ok((win, _, s)) => {
                    tally.check(clerk::rows_of(&s) == last_rows, || {
                        format!("{} window disagrees with a fresh window", w.view)
                    });
                    let _ = c.close_window(win);
                }
                Err(e) => tally.check(false, || format!("fresh {} failed: {e}", w.view)),
            }
        }
    }
}

/// Re-query every page the browse loop logged, in key order for the
/// key-ordered views and in executor order for the join view.
pub fn check_pages(c: &mut Client, log: &PageLog, tally: &mut Tally) {
    let mut by_view: std::collections::BTreeMap<&str, Vec<Vec<String>>> = Default::default();
    for ((view, page), rows) in &log.pages {
        let all = by_view.entry(view.as_str()).or_insert_with(|| {
            let mut rows = c
                .quel(clerk::view_quel(view))
                .map(|(_, r)| r)
                .unwrap_or_default();
            if clerk::key_ordered(view) {
                rows.sort_by_key(|r| match r[0] {
                    wow_rel::value::Value::Int(k) => k,
                    _ => i64::MIN,
                });
            }
            rows.iter().map(|r| setup::shown(r)).collect()
        });
        let lo = (page * clerk::PAGE).min(all.len());
        let hi = (lo + clerk::PAGE).min(all.len());
        tally.check(*rows == all[lo..hi], || {
            format!("{view} page {page} differs from a re-query")
        });
    }
}

/// One stretch of clerk actions a run performed; the traced run replays
/// the same plan in process. Reads ran on the read world, commits on the
/// write world.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Browse actions.
    Browse {
        /// Generator seed.
        seed: u64,
        /// Actions attempted.
        count: usize,
    },
    /// Bare open/close pairs.
    Opens {
        /// Generator seed.
        seed: u64,
        /// Pairs attempted.
        count: usize,
    },
    /// QBF actions, generated from the loaded students.
    Qbf {
        /// Generator seed.
        seed: u64,
        /// Actions attempted.
        count: usize,
    },
    /// Editor actions beside a watcher.
    Commit {
        /// Generator seed.
        seed: u64,
        /// First key inserts use.
        first_key: i64,
        /// Keys at or past this were inserted during the run.
        wall: i64,
        /// Actions attempted.
        count: usize,
    },
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunOut {
    /// All latency samples (loop and top-ups).
    pub samples: Samples,
    /// Actions of the timed loop.
    pub actions: u64,
    /// Wall seconds of the timed loop.
    pub secs: f64,
    /// Process CPU seconds of the timed loop.
    pub cpu_secs: f64,
    /// Attempted, failed, violations.
    pub tally: Tally,
    /// Set-up times, process CPU seconds.
    pub setup_s: Vec<f64>,
    /// Set-up times, wall seconds.
    pub setup_wall_s: Vec<f64>,
    /// Reopen process CPU times, ms.
    pub recover_ms: Vec<f64>,
    /// Reopen wall times, ms.
    pub recover_wall_ms: Vec<f64>,
    /// The phases run, in order.
    pub plan: Vec<Phase>,
}

impl RunOut {
    /// A run that has only set up, with these set-up times.
    pub fn with_setups(setup: &[Lat]) -> RunOut {
        RunOut {
            setup_s: setup.iter().map(|t| t.cpu / 1e6).collect(),
            setup_wall_s: setup.iter().map(|t| t.wall / 1e6).collect(),
            ..Default::default()
        }
    }

    /// Fold a top-up loop in (its actions do not count toward the rate).
    pub fn absorb(&mut self, o: LoopOut) {
        self.samples.extend(&o.samples);
        self.tally.absorb(o.tally);
    }

    /// Fold in the samples, tally and plan of a part of the run.
    fn absorb_run(&mut self, o: RunOut) {
        self.samples.extend(&o.samples);
        self.tally.absorb(o.tally);
        self.plan.extend(o.plan);
        self.setup_s.extend(o.setup_s);
        self.setup_wall_s.extend(o.setup_wall_s);
    }
}

/// Set-ups per run; the median is reported. Two bring up the served
/// worlds; the others are probes taken in every other top-up slice (a
/// set-up and its teardown), so that the set-ups span the run's phases.
pub const SETUPS: usize = 5;

/// The two served worlds of a run, loaded alike: reads go to `read`, which
/// is never written, so every page and QBF result can be checked against
/// the loaded rows while commits run on `write` in the same stretch of
/// time.
pub struct Worlds {
    /// The world only ever read.
    pub read: Served,
    /// The world the editors write.
    pub write: Served,
}

/// Bring up the two served worlds. Returns a client of the read world.
pub fn setup_worlds(w: Workload, tmp: &Path) -> (Worlds, Client, Vec<Lat>) {
    let (write, cw, tw) = setup::setup(w.shape(), &tmp.join("write"));
    let (read, c, tr) = setup::setup(w.shape(), &tmp.join("read"));
    let _ = cw.goodbye();
    (Worlds { read, write }, c, vec![tw, tr])
}

/// The first key above every loaded key.
fn first_free_key(served: &Served) -> i64 {
    served.students.iter().map(|s| s.sid).max().unwrap_or(0) + 1
}

/// Top-up slices between the timed loop's actions: every action the loop
/// does not perform itself is topped up to its floor in [`SLICES`] even
/// parts spread over the loop, since the host's speed moves in phases of
/// about a second and a top-up run in one block would sample one phase.
pub const SLICES: usize = 6;

/// Time given to pushes in flight to land before other work runs on this
/// process: a push latency spans the process's CPU clock from the commit
/// to the push's arrival, and must not take in anything else.
const SETTLE: Duration = Duration::from_millis(20);

/// The top-ups of one run: their generators live across slices.
struct TopUps {
    c: Client,
    seed: u64,
    /// Goals: browse actions, bare opens, QBF actions, commits.
    goals: [usize; 4],
    done: [usize; 4],
    slices_run: usize,
    browse: Deck<&'static str>,
    opens: Deck<&'static str>,
    qbf: QbfGen,
    qbf_out: LoopOut,
    rig: Option<CommitRig>,
    write_addr: SocketAddr,
    write_key: i64,
    /// Pause before a slice inside an editor's loop.
    settle: Duration,
    /// Set-up probes still owed, their world's shape, and where to build it.
    probes: usize,
    shape: Shape,
    probe_dir: PathBuf,
}

impl TopUps {
    fn new(w: Workload, worlds: &Worlds, seed: u64, probes: usize, tmp: &Path) -> TopUps {
        let own = |x: Workload| w == x;
        let browse = if own(Workload::Browse) {
            0
        } else {
            floor(Action::Browse) / 10
        };
        let opens = if own(Workload::Browse) {
            0
        } else {
            floor(Action::Browse) - browse
        };
        let qbf = if own(Workload::Qbf) {
            0
        } else {
            2 * floor(Action::Qbf)
        };
        let commits = if own(Workload::CommitPush) {
            0
        } else {
            floor(Action::Commit)
        };
        TopUps {
            c: Client::connect(worlds.read.addr).expect("top-up connection"),
            seed,
            goals: [browse, opens, qbf, commits],
            done: [0; 4],
            slices_run: 0,
            browse: Deck::new(stream(seed, 11), clerk::BROWSE_MIX),
            opens: Deck::new(stream(seed, 12), clerk::BROWSE_MIX),
            qbf: QbfGen::new(stream(seed, 13), &worlds.read.students),
            qbf_out: LoopOut::default(),
            rig: None,
            write_addr: worlds.write.addr,
            write_key: first_free_key(&worlds.write),
            settle: if own(Workload::CommitPush) {
                SETTLE
            } else {
                Duration::ZERO
            },
            probes,
            shape: w.shape(),
            probe_dir: tmp.join("probe"),
        }
    }

    /// Run the next slice: each top-up up to its share of the goal so far.
    fn slice(&mut self, worlds: &Worlds, run: &mut RunOut, rec: &mut Recoverer) {
        self.slices_run += 1;
        let share = |goal: usize, k: usize| goal * k / SLICES;
        let want: Vec<usize> = self
            .goals
            .iter()
            .map(|&g| share(g, self.slices_run.min(SLICES)))
            .collect();
        let need: Vec<usize> = (0..4)
            .map(|i| want[i].saturating_sub(self.done[i]))
            .collect();
        let c = &mut self.c;
        if need[0] > 0 {
            let mut log = PageLog::default();
            let until = Until::Count(need[0]);
            let o = browse_loop(c, &mut self.browse, until, &mut log, &mut |_| rec.tick());
            run.absorb(o);
        }
        if need[1] > 0 {
            run.absorb(opens_loop(c, &mut self.opens, need[1], &mut |_| rec.tick()));
        }
        if need[2] > 0 {
            let students = &worlds.read.students;
            let o = qbf_loop(
                c,
                &mut self.qbf,
                students,
                Until::Count(need[2]),
                &mut |_| rec.tick(),
            );
            self.qbf_out.samples.extend(&o.samples);
            self.qbf_out.tally.absorb(o.tally);
        }
        if need[3] > 0 {
            let (addr, key, seed) = (self.write_addr, self.write_key, stream(self.seed, 14));
            let rig = self
                .rig
                .get_or_insert_with(|| CommitRig::start(addr, seed, key, key));
            run.absorb(rig.run(Until::Count(need[3]), &mut |_| {}));
            // Let the last commit's pushes land before the reads resume.
            std::thread::sleep(SETTLE);
        }
        for (done, n) in self.done.iter_mut().zip(&need) {
            *done += n;
        }
        if self.probes > 0 && self.slices_run.is_multiple_of(2) {
            self.probes -= 1;
            let (served, client, t) = setup::setup(self.shape, &self.probe_dir);
            setup::teardown(served, client);
            run.setup_s.push(t.cpu / 1e6);
            run.setup_wall_s.push(t.wall / 1e6);
        }
    }

    /// Run the slices still owed, stop the rig, and record the phases.
    fn finish(mut self, worlds: &Worlds, run: &mut RunOut, rec: &mut Recoverer) {
        while self.slices_run < SLICES {
            self.slice(worlds, run, rec);
        }
        whole_filter_rounds(&mut self.qbf_out.samples);
        let qbf_out = std::mem::take(&mut self.qbf_out);
        run.absorb(qbf_out);
        let d = self.done;
        for (phase, n) in [
            (
                Phase::Browse {
                    seed: stream(self.seed, 11),
                    count: d[0],
                },
                d[0],
            ),
            (
                Phase::Opens {
                    seed: stream(self.seed, 12),
                    count: d[1],
                },
                d[1],
            ),
            (
                Phase::Qbf {
                    seed: stream(self.seed, 13),
                    count: d[2],
                },
                d[2],
            ),
        ] {
            if n > 0 {
                run.plan.push(phase);
            }
        }
        if let Some(rig) = self.rig.take() {
            let (o, phase) = rig.finish();
            run.absorb(o);
            run.plan.push(phase);
        }
        let _ = self.c.goodbye();
    }
}

/// The timed loop of a workload for `seconds` of its own time, with the
/// top-up slices and recovery reopens taken between its actions when
/// `interleave` is set (the traced run takes them after the loop instead,
/// so its counter reads around the loop cover the loop alone).
#[allow(clippy::too_many_arguments)]
fn main_loop(
    w: Workload,
    worlds: &Worlds,
    c: &mut Client,
    seed: u64,
    seconds: u64,
    run: &mut RunOut,
    top: &mut TopUps,
    rec: &mut Recoverer,
    interleave: bool,
    hook: Hook<'_>,
) {
    let until = Until::Time(Duration::from_secs(seconds));
    let every = Duration::from_secs_f64(seconds as f64 / SLICES as f64);
    // Slices fall due on the loop's own clock: wall time less the time
    // spent in this hook.
    let started = Instant::now();
    let mut spent = Duration::ZERO;
    let mut slices = Vec::new();
    let mut between = |c: &mut Client| {
        hook(c);
        if !interleave {
            return;
        }
        let t = Instant::now();
        let own = started.elapsed().saturating_sub(spent);
        let slice_due =
            top.slices_run < SLICES && own >= every.mul_f64(top.slices_run as f64 + 0.5);
        if slice_due || rec.due() {
            // Pushes of the editor's last commit land before anything else
            // runs on this process's clock.
            std::thread::sleep(top.settle);
            rec.tick();
            if slice_due {
                let mut part = RunOut::default();
                top.slice(worlds, &mut part, rec);
                slices.push(part);
            }
        }
        spent += t.elapsed();
    };
    let (o, phase) = match w {
        Workload::Browse => {
            let seed = stream(seed, 1);
            let mut log = PageLog::default();
            let mut views = Deck::new(seed, clerk::BROWSE_MIX);
            let mut o = browse_loop(c, &mut views, until, &mut log, &mut between);
            check_pages(c, &log, &mut o.tally);
            let count = o.tally.attempted as usize;
            (o, Phase::Browse { seed, count })
        }
        Workload::Qbf => {
            let seed = stream(seed, 2);
            let students = &worlds.read.students;
            let mut gen = QbfGen::new(seed, students);
            let mut o = qbf_loop(c, &mut gen, students, until, &mut between);
            whole_filter_rounds(&mut o.samples);
            let count = o.tally.attempted as usize;
            (o, Phase::Qbf { seed, count })
        }
        Workload::CommitPush => {
            let seed = stream(seed, 3);
            let key = first_free_key(&worlds.write);
            let mut rig = CommitRig::start(worlds.write.addr, seed, key, key);
            let o = rig.run(until, &mut between);
            let (mut fin, phase) = rig.finish();
            fin.samples.extend(&o.samples);
            fin.actions = o.actions;
            fin.secs = o.secs;
            fin.cpu_secs = o.cpu_secs;
            fin.tally.absorb(o.tally);
            (fin, phase)
        }
    };
    run.actions = o.actions;
    run.secs = o.secs;
    run.cpu_secs = o.cpu_secs;
    run.absorb(o);
    run.plan.push(phase);
    for part in slices {
        run.absorb_run(part);
    }
}

/// Top up the timed loop's own QBF figures if it ran too few: lookups and
/// filters each to their floor, in whole filter rounds.
fn own_qbf_top_up(
    c: &mut Client,
    worlds: &Worlds,
    seed: u64,
    run: &mut RunOut,
    rec: &mut Recoverer,
) {
    let s = &run.samples;
    let short = floor(Action::Qbf).saturating_sub(s.lookup.len().min(s.filter.len()));
    if short == 0 {
        return;
    }
    let count = 2 * short.div_ceil(clerk::FILTER_ROUND) * clerk::FILTER_ROUND;
    let seed = stream(seed, 21);
    let students = &worlds.read.students;
    let mut gen = QbfGen::new(seed, students);
    let mut o = qbf_loop(c, &mut gen, students, Until::Count(count), &mut |_| {
        rec.tick()
    });
    whole_filter_rounds(&mut o.samples);
    run.absorb(o);
    run.plan.push(Phase::Qbf { seed, count });
}

/// The timed loop with its top-up slices. `around` runs just before and
/// just after the timed loop; `hook` after each of its actions.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    w: Workload,
    worlds: &Worlds,
    c: &mut Client,
    (seed, seconds): (u64, u64),
    run: &mut RunOut,
    rec: &mut Recoverer,
    (interleave, tmp): (bool, &Path),
    around: Hook<'_>,
    hook: Hook<'_>,
) {
    let probes = if interleave { SETUPS - 2 } else { 0 };
    let mut top = TopUps::new(w, worlds, seed, probes, tmp);
    around(c);
    main_loop(
        w, worlds, c, seed, seconds, run, &mut top, rec, interleave, hook,
    );
    around(c);
    top.finish(worlds, run, rec);
    if w == Workload::Qbf {
        own_qbf_top_up(c, worlds, seed, run, rec);
    }
}

/// One untraced run of a workload for `seconds`, in `tmp`.
pub fn run(w: Workload, seed: u64, seconds: u64, tmp: &Path) -> RunOut {
    let (worlds, mut c, setup) = setup_worlds(w, tmp);
    let mut run = RunOut::with_setups(&setup);
    let mut rec = Recoverer::new(w.shape(), &tmp.join("crash"), stream(seed, 4));
    measure(
        w,
        &worlds,
        &mut c,
        (seed, seconds),
        &mut run,
        &mut rec,
        (true, tmp),
        &mut |_| {},
        &mut |_| {},
    );
    finish(worlds, c, rec, &mut run);
    run
}

/// Stop serving and delete both worlds, then take the recovery reopens
/// the run still owes and check them all.
pub fn finish(worlds: Worlds, c: Client, mut rec: Recoverer, run: &mut RunOut) -> Recoverer {
    setup::teardown(worlds.read, c);
    drop(worlds.write.server.shutdown());
    let _ = std::fs::remove_dir_all(&worlds.write.dir);
    rec.finish();
    run.tally.check(rec.matched, || {
        "a reopened world differs from the committed state".into()
    });
    run.recover_ms = rec.ms.clone();
    run.recover_wall_ms = rec.wall_ms.clone();
    rec
}
