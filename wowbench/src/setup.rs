//! Worlds the benchmark serves: sizes, bulk load, the durable directory,
//! the server, and the crash-and-reopen measurement.

use crate::clock::{Lat, Stamp};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wow_core::{World, WorldConfig};
use wow_net::{Client, Server, ServerConfig};
use wow_rel::db::Database;
use wow_rel::value::Value;
use wow_workload::university::{self, UniversityConfig};
use wow_workload::DetRng;

/// Which world a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The registrar world, small enough that heap and index pages fit
    /// the buffer pool.
    Registrar,
    /// The registrar world whose `student` rows carry a memo column, so
    /// heap plus index bytes are about 1.5× the buffer pool.
    Memo,
}

/// Table sizes of one world.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows in `student`.
    pub students: usize,
    /// Rows in `course`.
    pub courses: usize,
    /// Rows in `enroll`.
    pub enrollments: usize,
    /// Bytes of memo text per student (0: no memo column).
    pub memo_bytes: usize,
}

impl Shape {
    /// The pinned table sizes for this shape.
    pub fn sizes(self) -> Sizes {
        match self {
            Shape::Registrar => Sizes {
                students: 2000,
                courses: 100,
                enrollments: 4000,
                memo_bytes: 0,
            },
            Shape::Memo => Sizes {
                students: 3000,
                courses: 100,
                enrollments: 4000,
                memo_bytes: 3900,
            },
        }
    }
}

/// One `students` view row as the bench knows it: the four displayed
/// values, in view column order (sid, sname, year, gpa).
#[derive(Debug, Clone)]
pub struct Student {
    /// Primary key.
    pub sid: i64,
    /// Name.
    pub sname: String,
    /// Grade point average.
    pub gpa: f64,
    /// Display strings of the view row, the comparison currency.
    pub shown: Vec<String>,
}

/// Render a row as display strings (`Value` has no `PartialEq`).
pub fn shown(values: &[Value]) -> Vec<String> {
    values.iter().map(|v| v.to_string()).collect()
}

/// Parse `students` view rows (sid, sname, year, gpa) into [`Student`]s,
/// sorted by key.
pub fn students_of(rows: &[Vec<Value>]) -> Vec<Student> {
    let mut out: Vec<Student> = rows
        .iter()
        .map(|r| Student {
            sid: match r[0] {
                Value::Int(k) => k,
                _ => panic!("student key is not an INT"),
            },
            sname: match &r[1] {
                Value::Text(s) => s.clone(),
                other => other.to_string(),
            },
            gpa: r[3].as_f64().unwrap_or(0.0),
            shown: shown(r),
        })
        .collect();
    out.sort_by_key(|s| s.sid);
    out
}

/// The QUEL that reads every `students` view row.
pub const STUDENTS_QUEL: &str = "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.year, s.gpa)";

/// A served world: the server, its address, the directory behind it, and
/// the student rows it was loaded with.
pub struct Served {
    /// The running server.
    pub server: Server,
    /// Where it listens.
    pub addr: std::net::SocketAddr,
    /// The durable directory.
    pub dir: PathBuf,
    /// Student rows after the bulk load.
    pub students: Vec<Student>,
    /// Rows loaded across all tables.
    pub rows_loaded: usize,
    /// Time spent in the bulk load alone.
    pub load: Lat,
}

/// Capitalize a word, as the registrar's names are.
pub fn cap(word: &str) -> String {
    let mut cs = word.chars();
    match cs.next() {
        Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

/// The registrar schema with a memo column on `student`, loaded the way
/// `wow_workload::university::build` loads the plain one.
fn build_memo(db: &mut Database, sizes: &Sizes, seed: u64) {
    db.run(
        "CREATE TABLE student (sid INT KEY, sname TEXT NOT NULL, year INT, gpa FLOAT, memo TEXT)
         CREATE TABLE course (cno INT KEY, title TEXT NOT NULL, dept TEXT, credits INT)
         CREATE TABLE enroll (eid INT KEY, sid INT NOT NULL, cno INT NOT NULL, grade TEXT)
         CREATE INDEX enroll_sid ON enroll (sid) USING HASH
         CREATE INDEX enroll_cno ON enroll (cno)
         CREATE INDEX student_gpa ON student (gpa)
         RANGE OF s IS student
         RANGE OF c IS course
         RANGE OF en IS enroll",
    )
    .expect("memo schema");
    const DEPTS: &[&str] = &["math", "cs", "physics", "history", "music", "bio"];
    const GRADES: &[&str] = &["A", "B", "C", "D", "F", "I"];
    let mut rng = DetRng::new(seed);
    for sid in 0..sizes.students {
        let name = format!("{} {}", cap(&rng.word(6)), cap(&rng.word(8)));
        let year = rng.range_i64(1, 4);
        let gpa = (rng.unit_f64() * 3.0 + 1.0).min(4.0);
        let memo = rng.word(sizes.memo_bytes);
        db.insert(
            "student",
            vec![
                Value::Int(sid as i64),
                Value::text(name),
                Value::Int(year),
                Value::Float((gpa * 100.0).round() / 100.0),
                Value::text(memo),
            ],
        )
        .expect("student row");
    }
    for cno in 0..sizes.courses {
        let title = format!("{} {}", cap(&rng.word(7)), 100 + rng.range_i64(0, 399));
        db.insert(
            "course",
            vec![
                Value::Int(cno as i64),
                Value::text(title),
                Value::text(*rng.pick(DEPTS)),
                Value::Int(rng.range_i64(1, 4)),
            ],
        )
        .expect("course row");
    }
    for eid in 0..sizes.enrollments {
        let sid = rng.below(sizes.students.max(1) as u64) as i64;
        let cno = rng.below(sizes.courses.max(1) as u64) as i64;
        db.insert(
            "enroll",
            vec![
                Value::Int(eid as i64),
                Value::Int(sid),
                Value::Int(cno),
                Value::text(*rng.pick(GRADES)),
            ],
        )
        .expect("enroll row");
    }
}

/// Seed of the world's data. The world is part of the benchmark's
/// definition and the same for every run; `--seed` drives the operations.
pub const DATA_SEED: u64 = 0x5EED;

/// Bulk-load a fresh durable directory and checkpoint it. The rows are
/// written with the WAL detached and made durable by the checkpoint, as a
/// bulk load does; auto-checkpoints are off while loading.
pub fn load_durable(shape: Shape, dir: &Path) -> Loaded {
    let sizes = shape.sizes();
    let t = Stamp::now();
    let mut db = Database::open_durable(dir).expect("open durable dir");
    let wal = db.take_wal().expect("durable database has a WAL");
    db.set_checkpoint_every(0);
    match shape {
        Shape::Registrar => university::build(
            &mut db,
            &UniversityConfig {
                students: sizes.students,
                courses: sizes.courses,
                enrollments: sizes.enrollments,
                zipf_s: 1.0,
                seed: DATA_SEED,
            },
        ),
        Shape::Memo => build_memo(&mut db, &sizes, DATA_SEED),
    }
    let load = t.elapsed();
    db.attach_wal(wal);
    db.checkpoint_durable().expect("bulk-load checkpoint");
    let timed = t.elapsed();
    let rows = db.run(STUDENTS_QUEL).expect("read back students");
    let students = students_of(
        &rows
            .tuples
            .into_iter()
            .map(|t| t.values)
            .collect::<Vec<_>>(),
    );
    Loaded {
        students,
        rows: sizes.students + sizes.courses + sizes.enrollments,
        load,
        timed,
    }
}

/// What a bulk load produced.
pub struct Loaded {
    /// Student rows as loaded.
    pub students: Vec<Student>,
    /// Rows loaded across all tables.
    pub rows: usize,
    /// Time of the inserts alone.
    pub load: Lat,
    /// Time from opening the directory through the checkpoint.
    pub timed: Lat,
}

/// Serve a durable directory the way `wow-serve` does: `World::open_durable`
/// with the default configuration, the registrar views, a loopback server.
pub fn serve(dir: &Path) -> (Server, std::net::SocketAddr) {
    let mut world = World::open_durable(WorldConfig::default(), dir).expect("open durable world");
    university::define_views(&mut world);
    let server =
        Server::start(world, "127.0.0.1:0", ServerConfig::default()).expect("start server");
    let addr = server.local_addr();
    (server, addr)
}

/// Full set-up of one served world, timed: open the durable directory,
/// bulk-load, checkpoint, open the world, define views, start the server,
/// first connect. Reading the loaded students back for the generators is
/// not part of the timed spans.
pub fn setup(shape: Shape, dir: &Path) -> (Served, Client, Lat) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create world dir");
    let loaded = load_durable(shape, dir);
    let t = Stamp::now();
    let (server, addr) = serve(dir);
    let client = Client::connect(addr).expect("first connect");
    let rest = t.elapsed();
    (
        Served {
            server,
            addr,
            dir: dir.to_path_buf(),
            students: loaded.students,
            rows_loaded: loaded.rows,
            load: loaded.load,
        },
        client,
        loaded.timed + rest,
    )
}

/// Stop a served world and delete its directory.
pub fn teardown(served: Served, client: Client) {
    let _ = client.goodbye();
    drop(served.server.shutdown());
    let _ = std::fs::remove_dir_all(&served.dir);
}

/// Row count and an FNV-1a checksum over the sorted display rows of the
/// registrar's base tables: equal fingerprints mean equal contents.
pub fn fingerprint(db: &mut Database) -> (u64, u64) {
    let mut n = 0u64;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for table in ["student", "course", "enroll"] {
        let id = db.catalog().table(table).expect("registrar table").id;
        let mut rows: Vec<String> = db
            .scan_table_raw(id)
            .expect("scan table")
            .into_iter()
            .map(|(_, t)| shown(&t.values).join("\u{1f}"))
            .collect();
        rows.sort();
        for r in rows {
            n += 1;
            for b in r.bytes().chain([0x1e]) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (n, h)
}

/// Encoded bytes of every row of the registrar's base tables.
fn row_bytes(db: &mut Database) -> u64 {
    let mut bytes = 0u64;
    for table in ["student", "course", "enroll"] {
        let id = db.catalog().table(table).expect("registrar table").id;
        for (_, t) in db.scan_table_raw(id).expect("scan table") {
            bytes += t.encode().len() as u64;
        }
    }
    bytes
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

/// Commits left in the WAL after the last checkpoint when the world is
/// abandoned.
pub const RECOVER_COMMITS: usize = 512;
/// Reopens timed per run at least (each from a fresh copy of the abandoned
/// files).
pub const RECOVER_REPS: usize = 24;

/// A world abandoned the way a crash leaves it, reopened again and again
/// to time recovery. The host's speed moves in phases of about a second,
/// so the reopens are spread over the whole run (see [`Recoverer::tick`])
/// rather than taken back to back, and their mean is reported.
pub struct Recoverer {
    dir: PathBuf,
    before: (u64, u64),
    last: Instant,
    /// Process CPU time of each reopen, milliseconds.
    pub ms: Vec<f64>,
    /// The same reopens on the wall clock, milliseconds.
    pub wall_ms: Vec<f64>,
    /// Log operations replayed by one reopen.
    pub replayed_ops: u64,
    /// The explicit checkpoint taken before the fixed commits, wall ms.
    pub checkpoint_ms: f64,
    /// Checkpoint plus WAL bytes on disk at the crash.
    pub disk_bytes: u64,
    /// Encoded bytes of the rows those files hold.
    pub row_bytes: u64,
    /// Whether every reopened world held exactly the committed rows.
    pub matched: bool,
}

/// Least time between two reopens taken during a run.
const RECOVER_EVERY: Duration = Duration::from_millis(700);

impl Recoverer {
    /// Load a world of `shape` into `dir` and open it as it is served, take
    /// a checkpoint, commit [`RECOVER_COMMITS`] single-row updates (each
    /// fsynced by the default policy), fingerprint the committed state, and
    /// drop the world without a drain.
    pub fn new(shape: Shape, dir: &Path, seed: u64) -> Recoverer {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create crash dir");
        let loaded = load_durable(shape, dir);
        let mut world =
            World::open_durable(WorldConfig::default(), dir).expect("open durable world");
        university::define_views(&mut world);
        let t = Instant::now();
        world.checkpoint_durable().expect("checkpoint before crash");
        let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
        let db = world.db_mut();
        let table = db.catalog().table("student").expect("student").id;
        let mut rng = DetRng::new(seed ^ 0xC4A5_11ED);
        for i in 0..RECOVER_COMMITS {
            let sid = loaded.students[rng.below(loaded.students.len() as u64) as usize].sid;
            let rid = db
                .index_lookup("pk_student", &[Value::Int(sid)])
                .expect("pk lookup")[0];
            let mut values = db
                .get_row(table, rid)
                .expect("get row")
                .expect("row")
                .values;
            values[3] = Value::Float(1.0 + (i % 300) as f64 / 100.0);
            db.begin().expect("begin");
            db.update_rid("student", rid, values).expect("update");
            db.commit().expect("commit");
        }
        let before = fingerprint(db);
        let row_bytes = row_bytes(db);
        let disk_bytes = file_len(&dir.join(wow_rel::durable::CKPT_FILE))
            + file_len(&dir.join(wow_rel::durable::WAL_FILE));
        drop(world);
        Recoverer {
            dir: dir.to_path_buf(),
            before,
            last: Instant::now(),
            ms: Vec::new(),
            wall_ms: Vec::new(),
            replayed_ops: 0,
            checkpoint_ms,
            disk_bytes,
            row_bytes,
            matched: true,
        }
    }

    /// Time `World::open_durable` on a fresh copy of the abandoned files
    /// and compare the reopened world's fingerprint.
    pub fn reopen(&mut self) {
        let copy = self.dir.with_extension("reopen");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).expect("create reopen dir");
        for f in [wow_rel::durable::CKPT_FILE, wow_rel::durable::WAL_FILE] {
            std::fs::copy(self.dir.join(f), copy.join(f)).expect("copy world file");
        }
        let t = Stamp::now();
        let mut reopened = World::open_durable(WorldConfig::default(), &copy).expect("reopen");
        let lat = t.elapsed();
        self.ms.push(lat.cpu / 1e3);
        self.wall_ms.push(lat.wall / 1e3);
        self.replayed_ops = reopened
            .db()
            .recovery_report()
            .map(|r| r.replayed_ops)
            .unwrap_or(0);
        self.matched &= fingerprint(reopened.db_mut()) == self.before;
        drop(reopened);
        let _ = std::fs::remove_dir_all(&copy);
        self.last = Instant::now();
    }

    /// Whether [`RECOVER_EVERY`] has passed since the last reopen.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= RECOVER_EVERY
    }

    /// Reopen once if it is [`due`](Self::due). Called between the actions
    /// of a loop, on the loop's own thread while the servers are idle, so
    /// no action's time includes it.
    pub fn tick(&mut self) {
        if self.due() {
            self.reopen();
        }
    }

    /// Reopen until the run has [`RECOVER_REPS`], then delete the files.
    pub fn finish(&mut self) {
        while self.ms.len() < RECOVER_REPS {
            self.reopen();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
