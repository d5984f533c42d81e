//! Spans around the calls the harness makes into each layer, kept in a
//! pre-sized in-memory buffer and written out when the traced window ends.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`.  The buffer is a
//! fixed array of atomic slots claimed with one `fetch_add`, so recording
//! from VP worker threads takes no lock and allocates nothing; a span that
//! finds the buffer full is counted in `dropped` and lost.  Slots are read
//! only after the window's ops completed — their completion is what orders
//! the relaxed stores before the reads.

use crate::harness::now_ns;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The layer call a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Op,
    Fork,
    Touch,
    Put,
    Get,
    Rd,
    SockWrite,
    SockRead,
    InterpNew,
    Eval,
}

impl Name {
    const ALL: [Name; 10] = [
        Name::Op,
        Name::Fork,
        Name::Touch,
        Name::Put,
        Name::Get,
        Name::Rd,
        Name::SockWrite,
        Name::SockRead,
        Name::InterpNew,
        Name::Eval,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Fork => "cx.fork",
            Name::Touch => "cx.touch",
            Name::Put => "space.put",
            Name::Get => "space.get",
            Name::Rd => "space.rd",
            Name::SockWrite => "socket.write",
            Name::SockRead => "socket.read",
            Name::InterpNew => "Interp::new",
            Name::Eval => "Interp::eval_to_string",
        }
    }
}

/// A span's identity: its slot index plus one, so 0 means "no span".
pub type SpanId = u32;

/// No parent: an op span.
pub const ROOT: SpanId = 0;
/// Parent is the op span carrying the same `op_id`; resolved when the
/// buffer is read.  Used where the caller knows which op it serves but not
/// that op's span (a farm worker serving a master's job).
pub const PARENT_IS_OP: SpanId = u32::MAX;

#[derive(Default)]
struct Slot {
    /// `Name as u64 + 1`; 0 while the slot is claimed but not yet closed.
    name: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    parent: AtomicU64,
    op_id: AtomicU64,
}

pub struct Spans {
    slots: Box<[Slot]>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

/// A closed span as read back from the buffer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

impl Spans {
    pub fn new(capacity: usize) -> Spans {
        Spans {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Claims a slot, so children started before this span ends can name
    /// it as their parent.  [`ROOT`] when the buffer is full.
    pub fn open(&self) -> SpanId {
        let i = self.next.fetch_add(1, Relaxed);
        if i < self.slots.len() {
            i as SpanId + 1
        } else {
            self.dropped.fetch_add(1, Relaxed);
            ROOT
        }
    }

    /// Fills a slot claimed by [`Spans::open`]; the span ends now.
    pub fn close(&self, id: SpanId, name: Name, start_ns: u64, parent: SpanId, op_id: u64) {
        self.close_at(id, name, start_ns, now_ns(), parent, op_id);
    }

    /// [`Spans::close`] for a span whose end was stamped earlier.
    pub fn close_at(
        &self,
        id: SpanId,
        name: Name,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        op_id: u64,
    ) {
        if id == ROOT {
            return;
        }
        let s = &self.slots[id as usize - 1];
        s.start_ns.store(start_ns, Relaxed);
        s.end_ns.store(end_ns, Relaxed);
        s.parent.store(u64::from(parent), Relaxed);
        s.op_id.store(op_id, Relaxed);
        s.name.store(name as u64 + 1, Relaxed);
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&self, name: Name, start_ns: u64, parent: SpanId, op_id: u64) {
        self.close(self.open(), name, start_ns, parent, op_id);
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Every slot by index (`None` = never closed), with
    /// [`PARENT_IS_OP`] parents resolved through the op spans.
    pub fn read(&self) -> Vec<Option<Span>> {
        let used = self.next.load(Relaxed).min(self.slots.len());
        let mut spans: Vec<Option<Span>> = self.slots[..used]
            .iter()
            .map(|s| {
                let name = s.name.load(Relaxed);
                (name != 0).then(|| Span {
                    name: Name::ALL[name as usize - 1],
                    start_ns: s.start_ns.load(Relaxed),
                    end_ns: s.end_ns.load(Relaxed),
                    parent: s.parent.load(Relaxed) as SpanId,
                    op_id: s.op_id.load(Relaxed),
                })
            })
            .collect();
        let op_span: HashMap<u64, SpanId> = spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.filter(|s| s.name == Name::Op)
                    .map(|s| (s.op_id, i as SpanId + 1))
            })
            .collect();
        for s in spans.iter_mut().flatten() {
            if s.parent == PARENT_IS_OP {
                s.parent = op_span.get(&s.op_id).copied().unwrap_or(ROOT);
            }
        }
        spans
    }
}

/// Durations of every span called `name`.
pub fn durations_ns(spans: &[Option<Span>], name: Name) -> Vec<u64> {
    spans
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Share of op-span time not covered by child spans: self time is a span's
/// duration minus the part of that interval its children cover.  An op
/// whose children were all dropped by a full buffer is left out rather
/// than read as all-self.
pub fn op_self_share(spans: &[Option<Span>]) -> f64 {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().flatten() {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let (mut total, mut covered) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        let Some(op) = s.filter(|s| s.name == Name::Op) else {
            continue;
        };
        let Some(kids) = children.get_mut(&(i as SpanId + 1)) else {
            continue;
        };
        kids.sort_unstable();
        total += op.duration_ns();
        let mut reach = op.start_ns;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(op.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - covered as f64 / total as f64
    }
}

/// Writes the trace file: one row per span under `columns`, names indexed
/// into `names` to keep a few hundred thousand rows small.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    sample_one_in: u64,
    dropped: u64,
    spans: &[Option<Span>],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = Name::ALL
        .iter()
        .map(|n| format!("\"{}\"", n.as_str()))
        .collect();
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"clock\":\"ns since process start\",\
         \"ops_spanned_one_in\":{sample_one_in},\"dropped\":{dropped},\
         \"names\":[{}],\"columns\":[\"id\",\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op_id\"],\
         \"spans\":[",
        names.join(",")
    )?;
    let mut first = true;
    for (i, s) in spans.iter().enumerate() {
        let Some(s) = s else { continue };
        let sep = if first { "\n" } else { ",\n" };
        first = false;
        write!(
            w,
            "{sep}[{},{},{},{},{},{}]",
            i + 1,
            s.name as u8,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.op_id
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}
