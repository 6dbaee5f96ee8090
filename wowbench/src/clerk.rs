//! Clerk actions over the wire, their seeded generators, and the checks
//! each screenful must pass.
//!
//! A clerk action is the run of round trips a user makes for one intent;
//! its latency runs from the first request sent to the last response
//! received. An action whose request is refused counts as failed and
//! leaves no latency sample.

use crate::clock::{Lat, Stamp};
use crate::setup::{shown, Student};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wow_core::WowResult;
use wow_net::{Client, Push, Screenful};
use wow_rel::expr::glob_match;
use wow_workload::DetRng;

/// Rows per screenful (`WorldConfig::default().page_size`).
pub const PAGE: usize = 16;

/// The views a browsing clerk opens, as a mix: per round of ten actions,
/// four on the student list and two each on the others. The four views'
/// page costs differ by an order of magnitude, so the mix is exact per
/// round: independent draws would move the mean and the p90 with the draw.
pub const BROWSE_MIX: &[&str] = &[
    "students",
    "students",
    "students",
    "students",
    "courses",
    "courses",
    "honor_roll",
    "honor_roll",
    "transcript",
    "transcript",
];

/// Draws from a fixed multiset in seeded, shuffled rounds: each round of
/// `items.len()` draws holds every item as often as it is listed, so the
/// mix is exact per round while the order stays random.
pub struct Deck<T: Clone> {
    items: Vec<T>,
    left: Vec<T>,
    rng: DetRng,
}

impl<T: Clone> Deck<T> {
    /// A deck over `items`, seeded.
    pub fn new(seed: u64, items: &[T]) -> Deck<T> {
        Deck {
            items: items.to_vec(),
            left: Vec::new(),
            rng: DetRng::new(seed),
        }
    }

    /// The next item.
    pub fn draw(&mut self) -> T {
        if self.left.is_empty() {
            self.left = self.items.clone();
            self.rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("a non-empty deck")
    }
}

/// The windows the watcher holds. The first three are on `students`,
/// which every student write refreshes exactly once.
pub const WATCH_VIEWS: &[&str] = &[
    "students",
    "students",
    "students",
    "seniors",
    "honor_roll",
    "transcript",
    "courses",
    "seniors",
];

/// QUEL equivalent of each registrar view (as `define_views` defines them).
pub fn view_quel(view: &str) -> &'static str {
    match view {
        "students" => "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.year, s.gpa)",
        "seniors" => "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.gpa) WHERE s.year = 4",
        "honor_roll" => "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.gpa) WHERE s.gpa >= 3.5",
        "courses" => "RANGE OF c IS course RETRIEVE (c.cno, c.title, c.dept, c.credits)",
        "transcript" => {
            "RANGE OF s IS student RANGE OF en IS enroll \
             RETRIEVE (s.sname, en.cno, en.grade) WHERE s.sid = en.sid"
        }
        other => panic!("no QUEL for view {other}"),
    }
}

/// Whether a view's windows use the key-ordered (indexed) cursor.
pub fn key_ordered(view: &str) -> bool {
    view != "transcript"
}

/// Latency samples by clerk action, on both clocks.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// `open_window` → first screenful.
    pub open: Vec<Lat>,
    /// `next_page` / `prev_page`.
    pub page: Vec<Lat>,
    /// QBF on the key → first restricted screenful.
    pub lookup: Vec<Lat>,
    /// QBF on a non-key field → first restricted screenful.
    pub filter: Vec<Lat>,
    /// Edit, insert or delete through a window, acknowledged.
    pub commit: Vec<Lat>,
    /// Editor sends `commit` → watcher holds the push carrying it.
    pub push: Vec<Lat>,
}

impl Samples {
    /// Append another set of samples.
    pub fn extend(&mut self, o: &Samples) {
        self.open.extend(&o.open);
        self.page.extend(&o.page);
        self.lookup.extend(&o.lookup);
        self.filter.extend(&o.filter);
        self.commit.extend(&o.commit);
        self.push.extend(&o.push);
    }
}

/// Attempted and failed actions, plus every correctness violation seen.
#[derive(Debug, Default)]
pub struct Tally {
    /// Actions started.
    pub attempted: u64,
    /// Actions with a refused or failed request.
    pub failed: u64,
    /// Check failures, described.
    pub violations: Vec<String>,
}

impl Tally {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.violations.extend(o.violations);
    }
}

/// Display rows of a screenful.
pub fn rows_of(s: &Screenful) -> Vec<Vec<String>> {
    s.rows.iter().map(|r| shown(r)).collect()
}

fn first_int(row: &[wow_rel::value::Value]) -> Option<i64> {
    match row.first() {
        Some(wow_rel::value::Value::Int(k)) => Some(*k),
        _ => None,
    }
}

/// Whether a page of a key-ordered view is strictly key-ascending.
pub fn key_ascending(s: &Screenful) -> bool {
    let keys: Vec<Option<i64>> = s.rows.iter().map(|r| first_int(r)).collect();
    keys.iter().all(|k| k.is_some()) && keys.windows(2).all(|w| w[0] < w[1])
}

// -- browse -------------------------------------------------------------------

/// Every page a browse action saw, by (view, page number), for the
/// end-of-run re-query. A read-only world shows the same page every time.
#[derive(Debug, Default)]
pub struct PageLog {
    /// First sighting of each page.
    pub pages: BTreeMap<(String, usize), Vec<Vec<String>>>,
}

impl PageLog {
    fn see(&mut self, view: &str, page: usize, s: &Screenful, tally: &mut Tally) {
        if key_ordered(view) {
            tally.check(key_ascending(s), || {
                format!("{view} page {page} is not key-ascending")
            });
        }
        let rows = rows_of(s);
        match self.pages.get(&(view.to_string(), page)) {
            Some(prev) => tally.check(*prev == rows, || {
                format!("{view} page {page} changed in a read-only world")
            }),
            None => {
                self.pages.insert((view.to_string(), page), rows);
            }
        }
    }
}

/// Open a window, page forward 8 and back 2, close it.
pub fn browse_action(
    c: &mut Client,
    view: &str,
    out: &mut Samples,
    log: &mut PageLog,
    tally: &mut Tally,
) -> WowResult<()> {
    let mut local = Samples::default();
    let t = Stamp::now();
    let (win, _, screen) = c.open_window(view, false)?;
    local.open.push(t.elapsed());
    let mut page = 0usize;
    log.see(view, page, &screen, tally);
    for step in 0..10 {
        let t = Stamp::now();
        let (moved, screen) = if step < 8 {
            c.next_page(win)?
        } else {
            c.prev_page(win)?
        };
        local.page.push(t.elapsed());
        if moved {
            page = if step < 8 { page + 1 } else { page - 1 };
        }
        log.see(view, page, &screen, tally);
    }
    c.close_window(win)?;
    out.extend(&local);
    Ok(())
}

// -- QBF ----------------------------------------------------------------------

/// One query-by-form action.
#[derive(Debug, Clone)]
pub enum Qbf {
    /// `sid = k`.
    Lookup(i64),
    /// A restriction on a non-key field: `(field index, entry text)`.
    Filter(u16, String),
}

/// Field positions in the `students` form.
pub const F_SID: u16 = 0;
/// `sname`.
pub const F_SNAME: u16 = 1;
/// `year`.
pub const F_YEAR: u16 = 2;
/// `gpa`.
pub const F_GPA: u16 = 3;

/// The students a QBF entry matches, in key order.
pub fn qbf_matches<'a>(q: &Qbf, students: &'a [Student]) -> Vec<&'a Student> {
    students
        .iter()
        .filter(|s| match q {
            Qbf::Lookup(k) => s.sid == *k,
            Qbf::Filter(F_SNAME, pat) => glob_match(pat, &s.sname),
            Qbf::Filter(F_GPA, e) => {
                let x: f64 = e.trim_start_matches("<=").parse().expect("gpa bound");
                s.gpa <= x
            }
            Qbf::Filter(f, e) => panic!("no generator makes filter {f}:{e}"),
        })
        .collect()
}

/// Selectivity strata per filter kind: each round of filters takes every
/// stratum of the log-uniform range once, at its midpoint, in a seeded
/// order. Filter cost spans two orders of magnitude with selectivity, so
/// independent draws would move the filter figures from seed to seed.
const STRATA: u32 = 25;

/// Filters per round: every stratum of both kinds once.
pub const FILTER_ROUND: usize = 2 * STRATA as usize;

/// Seeded QBF generator over a snapshot of the students.
pub struct QbfGen {
    rng: DetRng,
    filters: Deck<(u16, u32)>,
    gpas: Vec<f64>,
    /// Share of names starting with each prefix of one to three letters.
    prefixes: Vec<(f64, String)>,
    next_lookup: bool,
}

impl QbfGen {
    /// A generator for `students`, seeded.
    pub fn new(seed: u64, students: &[Student]) -> QbfGen {
        let mut gpas: Vec<f64> = students.iter().map(|s| s.gpa).collect();
        gpas.sort_by(|a, b| a.total_cmp(b));
        let strata: Vec<(u16, u32)> = [F_GPA, F_SNAME]
            .iter()
            .flat_map(|&f| (0..STRATA).map(move |i| (f, i)))
            .collect();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for s in students {
            for l in (1..=3).filter(|&l| s.sname.is_char_boundary(l)) {
                *counts.entry(&s.sname[..l]).or_insert(0) += 1;
            }
        }
        let n = students.len() as f64;
        QbfGen {
            rng: DetRng::new(seed),
            filters: Deck::new(seed ^ 0x51EC, &strata),
            gpas,
            prefixes: counts
                .into_iter()
                .map(|(p, c)| (c as f64 / n, p.to_string()))
                .collect(),
            next_lookup: true,
        }
    }

    /// Alternate a uniform key lookup with a filter whose selectivity is
    /// log-uniform from 0.1% to 25% (stratified, see [`STRATA`]):
    /// a `gpa <= x` comparison at that quantile, or an `sname` prefix
    /// pattern whose selectivity is nearest it (the seed picks among ties).
    pub fn next(&mut self, students: &[Student]) -> Qbf {
        let lookup = self.next_lookup;
        self.next_lookup = !lookup;
        if lookup {
            let s = &students[self.rng.below(students.len() as u64) as usize];
            return Qbf::Lookup(s.sid);
        }
        let (field, stratum) = self.filters.draw();
        let (lo, hi) = (0.001f64.ln(), 0.25f64.ln());
        let at = (stratum as f64 + 0.5) / STRATA as f64;
        let sel = (lo + at * (hi - lo)).exp();
        let n = students.len();
        if field == F_GPA {
            let k = ((sel * n as f64) as usize).clamp(1, n) - 1;
            Qbf::Filter(F_GPA, format!("<={:.2}", self.gpas[k]))
        } else {
            let dist = |share: f64| (share.ln() - sel.ln()).abs();
            let best = self
                .prefixes
                .iter()
                .map(|(share, _)| dist(*share))
                .fold(f64::INFINITY, f64::min);
            let nearest: Vec<&String> = self
                .prefixes
                .iter()
                .filter(|(share, _)| dist(*share) <= best + 1e-9)
                .map(|(_, p)| p)
                .collect();
            let prefix = nearest[self.rng.below(nearest.len() as u64) as usize];
            Qbf::Filter(F_SNAME, format!("{prefix}*"))
        }
    }
}

fn check_qbf_page(q: &Qbf, s: &Screenful, matches: &[&Student], first: bool, tally: &mut Tally) {
    let rows = rows_of(s);
    let want: Vec<Vec<String>> = matches.iter().map(|m| m.shown.clone()).collect();
    if first {
        let n = want.len().min(PAGE);
        tally.check(rows == want[..n], || {
            format!(
                "QBF {q:?}: first screenful {rows:?} is not {:?}",
                &want[..n]
            )
        });
    } else {
        // A later page is a contiguous run of the matches.
        let ok = rows.is_empty()
            || want
                .iter()
                .position(|w| *w == rows[0])
                .is_some_and(|i| want[i..].starts_with(&rows));
        tally.check(ok, || {
            format!("QBF {q:?}: second screenful is not a run of matches")
        });
    }
    if let Qbf::Lookup(k) = q {
        tally.check(rows.len() == 1 && first_int(&s.rows[0]) == Some(*k), || {
            format!("lookup of {k} returned {rows:?}")
        });
    }
}

/// Enter the query, type it, run it (timed as lookup or filter), page
/// forward once (timed as a page), clear the restriction.
pub fn qbf_action(
    c: &mut Client,
    win: u32,
    q: &Qbf,
    students: &[Student],
    out: &mut Samples,
    tally: &mut Tally,
) -> WowResult<()> {
    let (field, text) = match q {
        Qbf::Lookup(k) => (F_SID, k.to_string()),
        Qbf::Filter(f, e) => (*f, e.clone()),
    };
    let t = Stamp::now();
    c.enter_query(win)?;
    c.set_field(win, field, &text)?;
    let first = c.commit(win)?;
    let q_lat = t.elapsed();
    let t = Stamp::now();
    let (_, second) = c.next_page(win)?;
    let p_lat = t.elapsed();
    c.clear_query(win)?;
    let matches = qbf_matches(q, students);
    check_qbf_page(q, &first, &matches, true, tally);
    check_qbf_page(q, &second, &matches, false, tally);
    match q {
        Qbf::Lookup(_) => out.lookup.push(q_lat),
        Qbf::Filter(..) => out.filter.push(q_lat),
    }
    out.page.push(p_lat);
    Ok(())
}

// -- writes and pushes --------------------------------------------------------

/// One write through the `students` window.
#[derive(Debug, Clone)]
pub enum Write {
    /// Change `year` or `gpa` of the current row to the given entry.
    Edit(u16, String),
    /// A new row with a fresh key.
    Insert(i64, String, i64, String),
    /// Delete the current row.
    Delete,
}

/// Write kinds per round of ten: seven edits, two inserts, one delete.
const WRITE_MIX: &[u8] = b"eeeeeeeiid";

/// Seeded write generator: 70% edits, 20% inserts, 10% deletes.
pub struct WriteGen {
    kinds: Deck<u8>,
    rng: DetRng,
    next_key: i64,
}

impl WriteGen {
    /// Fresh keys start above every loaded key.
    pub fn new(seed: u64, first_free_key: i64) -> WriteGen {
        WriteGen {
            kinds: Deck::new(seed ^ 0x3417, WRITE_MIX),
            rng: DetRng::new(seed),
            next_key: first_free_key,
        }
    }

    /// The next write, given the current row's display values
    /// (sid, sname, year, gpa). Edits always change the value.
    pub fn next(&mut self, current: Option<&[String]>) -> Write {
        match (self.kinds.draw(), current) {
            (b'd', Some(_)) => Write::Delete,
            (b'i', _) | (_, None) => {
                let key = self.next_key;
                self.next_key += 1;
                let name = format!(
                    "{} {}",
                    crate::setup::cap(&self.rng.word(6)),
                    crate::setup::cap(&self.rng.word(8))
                );
                let year = self.rng.range_i64(1, 4);
                let gpa = format!("{:.2}", 1.0 + self.rng.below(301) as f64 / 100.0);
                Write::Insert(key, name, year, gpa)
            }
            (_, Some(row)) => {
                if self.rng.below(2) == 0 {
                    let old: i64 = row[2].parse().unwrap_or(0);
                    let mut y = self.rng.range_i64(1, 4);
                    if y == old {
                        y = y % 4 + 1;
                    }
                    Write::Edit(F_YEAR, y.to_string())
                } else {
                    let old = row[3].parse::<f64>().unwrap_or(0.0);
                    let mut g = 1.0 + self.rng.below(301) as f64 / 100.0;
                    if (g - old).abs() < 0.005 {
                        g = if g >= 3.99 { 1.0 } else { g + 0.01 };
                    }
                    Write::Edit(F_GPA, format!("{g:.2}"))
                }
            }
        }
    }
}

/// The editor's log: when each acknowledged commit was sent.
#[derive(Debug, Default)]
pub struct EditorLog {
    /// Send instant of the request that commits, per acknowledged commit.
    pub sent: Vec<Stamp>,
}

/// The editor's state between actions: its window, current row, and the
/// direction it steps in.
pub struct Editor {
    /// The connection.
    pub c: Client,
    /// Its `students` window.
    pub win: u32,
    current: Option<Vec<String>>,
    forward: bool,
    wall: i64,
    gen: WriteGen,
}

fn current_of(s: &Screenful) -> Option<Vec<String>> {
    s.current.map(|i| shown(&s.rows[i as usize]))
}

/// Whether the editor's step must turn round: it did not move (an end of
/// the view), or it moved forward onto a row inserted during the run (key
/// at or past `wall`). The editor so keeps working the loaded rows, and
/// the mix of rows it edits does not drift with how fast it goes.
pub fn must_turn(forward: bool, moved: bool, current: Option<&[String]>, wall: i64) -> bool {
    let key = current.and_then(|r| r[0].parse::<i64>().ok());
    !moved || (forward && key.is_some_and(|k| k >= wall))
}

impl Editor {
    /// Connect and open the `students` window. Inserts use keys from
    /// `first_free_key` on; rows keyed at or past `wall` were inserted
    /// during the run.
    pub fn open(addr: SocketAddr, seed: u64, first_free_key: i64, wall: i64) -> WowResult<Editor> {
        let mut c = Client::connect(addr)?;
        let (win, _, screen) = c.open_window("students", false)?;
        Ok(Editor {
            c,
            win,
            current: current_of(&screen),
            forward: true,
            wall,
            gen: WriteGen::new(seed, first_free_key),
        })
    }

    /// One clerk action: a write (timed as a commit), then one step to
    /// the neighbouring row, turning round as [`must_turn`] says.
    pub fn act(&mut self, out: &mut Samples, log: &mut EditorLog) -> WowResult<()> {
        let w = self.gen.next(self.current.as_deref());
        let win = self.win;
        let t = Stamp::now();
        let sent;
        let screen = match &w {
            Write::Edit(field, text) => {
                self.c.enter_edit(win)?;
                self.c.set_field(win, *field, text)?;
                sent = Stamp::now();
                self.c.commit(win)?
            }
            Write::Insert(key, name, year, gpa) => {
                self.c.enter_insert(win)?;
                self.c.set_field(win, F_SID, &key.to_string())?;
                self.c.set_field(win, F_SNAME, name)?;
                self.c.set_field(win, F_YEAR, &year.to_string())?;
                self.c.set_field(win, F_GPA, gpa)?;
                sent = Stamp::now();
                self.c.commit(win)?
            }
            Write::Delete => {
                sent = t;
                self.c.delete_current(win)?
            }
        };
        out.commit.push(t.elapsed());
        log.sent.push(sent);
        self.current = current_of(&screen);
        let (moved, screen) = if self.forward {
            self.c.next(win)?
        } else {
            self.c.prev(win)?
        };
        let turn = must_turn(
            self.forward,
            moved,
            current_of(&screen).as_deref(),
            self.wall,
        );
        let screen = if !turn {
            screen
        } else {
            self.forward = !self.forward;
            if self.forward {
                self.c.next(win)?.1
            } else {
                self.c.prev(win)?.1
            }
        };
        self.current = current_of(&screen);
        Ok(())
    }
}

/// What the watcher saw of one window.
#[derive(Debug, Default, Clone)]
pub struct Watched {
    /// Window id.
    pub win: u32,
    /// View it shows.
    pub view: String,
    /// Generation when it opened.
    pub opened_gen: u64,
    /// Every push received, in order: (generation, arrival).
    pub pushes: Vec<(u64, Stamp)>,
    /// The screenful it shows now (last push, or the open).
    pub last: Option<Screenful>,
}

/// The watcher: one connection holding [`WATCH_VIEWS`], recording every
/// push until told to stop and the stream has gone quiet.
pub fn watch(
    addr: SocketAddr,
    ready: std::sync::mpsc::Sender<()>,
    stop: Arc<AtomicBool>,
) -> WowResult<(Client, Vec<Watched>)> {
    let mut c = Client::connect(addr)?;
    let mut windows = Vec::new();
    for view in WATCH_VIEWS {
        let (win, _, screen) = c.open_window(view, false)?;
        windows.push(Watched {
            win,
            view: view.to_string(),
            opened_gen: c.generation_of(win),
            pushes: Vec::new(),
            last: Some(screen),
        });
    }
    let _ = ready.send(());
    let mut quiet_since: Option<Instant> = None;
    loop {
        match c.wait_push(Duration::from_millis(20))? {
            Some(Push::WindowRefreshed {
                win,
                generation,
                screen,
                ..
            }) => {
                let at = Stamp::now();
                quiet_since = None;
                if let Some(w) = windows.iter_mut().find(|w| w.win == win) {
                    w.pushes.push((generation, at));
                    w.last = Some(screen);
                }
            }
            None => {
                if stop.load(Ordering::SeqCst) {
                    let q = *quiet_since.get_or_insert_with(Instant::now);
                    if q.elapsed() >= Duration::from_millis(200) {
                        break;
                    }
                }
            }
        }
    }
    Ok((c, windows))
}

/// Push latency samples. On a `students` window every
/// acknowledged commit bumps the generation by exactly one, so generation
/// `opened + 1 + i` carries commit `i`; a coalesced push is carried by the
/// first later push that arrives. Returns the samples and whether every
/// `students` window ended on the generation of the last commit.
pub fn push_samples(windows: &[Watched], sent: &[Stamp]) -> (Vec<Lat>, bool) {
    let mut out = Vec::new();
    let mut complete = true;
    for w in windows.iter().filter(|w| w.view == "students") {
        let mut p = 0;
        for (i, t_sent) in sent.iter().enumerate() {
            let want = w.opened_gen + 1 + i as u64;
            while p < w.pushes.len() && w.pushes[p].0 < want {
                p += 1;
            }
            match w.pushes.get(p) {
                Some((_, at)) => out.push(t_sent.until(*at)),
                None => complete = false,
            }
        }
        let last = w.pushes.last().map(|p| p.0).unwrap_or(w.opened_gen);
        complete &= last == w.opened_gen + sent.len() as u64;
    }
    (out, complete)
}

/// Generations must rise strictly, per window, in arrival order.
pub fn generations_monotone(windows: &[Watched]) -> bool {
    windows.iter().all(|w| {
        w.pushes.windows(2).all(|p| p[0].0 < p[1].0)
            && w.pushes.first().is_none_or(|p| p.0 > w.opened_gen)
    })
}
