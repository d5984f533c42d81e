//! Concurrency primitives: the substrate surfaced into Scheme.
//!
//! These are the operations of the paper's Section 3.1 (thread controller),
//! §4.2 (mutexes, tuple spaces) and §4.3 (speculative/barrier
//! synchronization), with threads, mutexes, streams and tuple spaces as
//! first-class Scheme values (native handles).

use crate::error::SchemeError;
use crate::machine::{self, Machine};
use crate::prims::{rerr, want_int, want_list, want_string, want_sym, Def};
use parking_lot::Mutex as PlMutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_areas::Val;
use sting_core::fleet::Fleet;
use sting_core::net::{TcpListener, TcpStream, LOCALHOST};
use sting_core::tc::{self, Cx};
use sting_core::thread::{Thread, ThreadResult};
use sting_core::vm::Vm;
use sting_core::ThreadState;
use sting_sync::{Barrier, Channel, Mutex, Semaphore, Stream, StreamCursor};
use sting_tuple::{formal, lit, ShardedSpace, SpaceKind, Template, TemplateField, TupleSpace};
use sting_value::{Symbol, Value};

fn cx() -> Result<Cx, SchemeError> {
    Cx::current().ok_or_else(|| rerr("operation requires a STING thread"))
}

fn want_thread(m: &Machine, argc: usize, i: usize, who: &str) -> Result<Arc<Thread>, SchemeError> {
    match m.arg(argc, i) {
        Val::Native(slot) => m
            .heap
            .native(slot)
            .native_as::<Thread>()
            .ok_or_else(|| rerr(format!("{who}: expected thread"))),
        _ => Err(rerr(format!("{who}: expected thread"))),
    }
}

fn want_native<T: std::any::Any + Send + Sync>(
    m: &Machine,
    argc: usize,
    i: usize,
    who: &str,
) -> Result<Arc<T>, SchemeError> {
    match m.arg(argc, i) {
        Val::Native(slot) => m
            .heap
            .native(slot)
            .native_as::<T>()
            .ok_or_else(|| rerr(format!("{who}: wrong object type"))),
        _ => Err(rerr(format!("{who}: expected a runtime object"))),
    }
}

/// Converts the closure argument `i` into a portable thunk value.
fn want_thunk_value(
    m: &mut Machine,
    argc: usize,
    i: usize,
    who: &str,
) -> Result<Value, SchemeError> {
    let v = m.arg(argc, i);
    let sv = m.to_value(v)?;
    let ok = sv
        .as_native()
        .is_some_and(|h| h.tag() == crate::convert::CLOSURE_TAG || h.tag() == "prim");
    if ok {
        Ok(sv)
    } else {
        Err(rerr(format!("{who}: expected a procedure")))
    }
}

fn unwrap_result(m: &mut Machine, r: ThreadResult) -> Result<Val, SchemeError> {
    match r {
        Ok(v) => Ok(m.from_value(&v)),
        Err(e) => Err(SchemeError::Raised(e)),
    }
}

fn thread_val(m: &mut Machine, t: &Arc<Thread>) -> Val {
    m.native(t.to_value())
}

fn fork(m: &mut Machine, argc: usize, delayed: bool) -> Result<Val, SchemeError> {
    let who = if delayed {
        "create-thread"
    } else {
        "fork-thread"
    };
    let thunk = want_thunk_value(m, argc, 0, who)?;
    let cx = cx()?;
    let t = if delayed {
        machine::delay_thunk_value(
            &cx,
            m.program.clone(),
            m.globals.clone(),
            m.fluids.clone(),
            thunk,
        )
    } else if argc > 1 {
        // Explicit VP placement: (fork-thread thunk vp).
        let vp = want_int(m, argc, 1, who)? as usize;
        let program = m.program.clone();
        let globals = m.globals.clone();
        let fluids = m.fluids.clone();
        cx.fork_on_try(vp, move |cx2| {
            machine::run_thunk_in_fresh_machine(cx2, program, globals, fluids, &thunk)
        })
        .map_err(|e| rerr(format!("fork-thread: {e}")))?
    } else {
        machine::fork_thunk_value(
            &cx,
            m.program.clone(),
            m.globals.clone(),
            m.fluids.clone(),
            thunk,
        )
    };
    Ok(thread_val(m, &t))
}

/// Decodes a Scheme template list: the symbol `?` is a formal, anything
/// else is a literal.
fn want_template(
    m: &mut Machine,
    argc: usize,
    i: usize,
    who: &str,
) -> Result<Template, SchemeError> {
    let items = want_list(m, argc, i, who)?;
    let q = Symbol::intern("?");
    let mut fields: Vec<TemplateField> = Vec::with_capacity(items.len());
    for &item in &items {
        match item {
            Val::Sym(s) if Symbol::from_index(s) == q => fields.push(formal()),
            other => {
                let v = m.to_value(other)?;
                fields.push(lit(v));
            }
        }
    }
    Ok(Template::new(fields))
}

/// Decodes an optional trailing milliseconds argument into a [`Duration`].
fn want_ms(m: &Machine, argc: usize, i: usize, who: &str) -> Result<Duration, SchemeError> {
    let ms = want_int(m, argc, i, who)?;
    Ok(Duration::from_millis(ms.max(0) as u64))
}

fn bindings_to_val(m: &mut Machine, bindings: Vec<Value>) -> Val {
    for b in &bindings {
        let hv = m.from_value(b);
        m.push(hv);
    }
    m.list_from_stack(bindings.len())
}

/// The `(vm-metrics)` row list for one VM (see the prim's doc comment).
fn metrics_rows(m: &mut Machine, vm: &Arc<Vm>) -> Val {
    let snap = vm.metrics().snapshot();
    let rows = [
        ("dispatch", snap.dispatch),
        ("steal", snap.steal),
        ("block-wake", snap.wake),
        ("gc-pause", snap.gc_pause),
    ];
    for (name, h) in &rows {
        m.push(Val::Sym(Symbol::intern(name).index()));
        m.push(Val::Int(h.count as i64));
        m.push(Val::Int(h.min as i64));
        m.push(Val::Float(h.mean()));
        m.push(Val::Int(h.p50() as i64));
        m.push(Val::Int(h.p99() as i64));
        m.push(Val::Int(h.max as i64));
        let row = m.list_from_stack(7);
        m.push(row);
    }
    m.list_from_stack(rows.len())
}

/// A fluid (dynamic binding) key.
#[derive(Debug)]
pub struct Fluid {
    id: u64,
}

/// Cursor handle: a mutable position over a stream.
#[derive(Debug)]
pub struct CursorHandle(pub(crate) PlMutex<StreamCursor>);

pub(crate) fn add_defs(v: &mut Vec<Def>) {
    macro_rules! def {
        ($name:literal, $min:expr, $max:expr, $f:expr) => {
            v.push(Def {
                name: $name,
                min: $min,
                max: $max,
                f: $f,
            });
        };
    }

    // --- threads ------------------------------------------------------
    def!("fork-thread", 1, Some(2), |m, a| fork(m, a, false));
    def!("create-thread", 1, Some(1), |m, a| fork(m, a, true));
    def!("thread?", 1, Some(1), |m, a| {
        Ok(Val::Bool(want_thread(m, a, 0, "thread?").is_ok()))
    });
    def!("thread-run", 1, Some(2), |m, a| {
        let t = want_thread(m, a, 0, "thread-run")?;
        let vp = if a > 1 {
            want_int(m, a, 1, "thread-run")? as usize
        } else {
            tc::current_vp().map(|v| v.index()).unwrap_or(0)
        };
        tc::thread_run(&t, vp).map_err(|e| rerr(format!("thread-run: {e}")))?;
        Ok(Val::Unit)
    });
    def!("thread-wait", 1, Some(2), |m, a| {
        // (thread-wait t [ms]): #f if the thread did not determine in time.
        let t = want_thread(m, a, 0, "thread-wait")?;
        if a > 1 {
            let ms = want_ms(m, a, 1, "thread-wait")?;
            match tc::wait_timeout(&t, ms) {
                Some(r) => unwrap_result(m, r),
                None => Ok(Val::Bool(false)),
            }
        } else {
            let r = tc::wait(&t);
            unwrap_result(m, r)
        }
    });
    def!("thread-value", 1, Some(1), |m, a| {
        // touch: steals claimable threads onto this TCB.
        let t = want_thread(m, a, 0, "thread-value")?;
        let r = tc::touch(&t);
        unwrap_result(m, r)
    });
    def!("touch", 1, Some(1), |m, a| {
        let t = want_thread(m, a, 0, "touch")?;
        let r = tc::touch(&t);
        unwrap_result(m, r)
    });
    def!("thread-block", 1, Some(1), |m, a| {
        let t = want_thread(m, a, 0, "thread-block")?;
        tc::thread_block(&t).map_err(|e| rerr(format!("thread-block: {e}")))?;
        Ok(Val::Unit)
    });
    def!("thread-suspend", 1, Some(2), |m, a| {
        let t = want_thread(m, a, 0, "thread-suspend")?;
        let q = if a > 1 {
            Some(Duration::from_millis(
                want_int(m, a, 1, "thread-suspend")? as u64
            ))
        } else {
            None
        };
        tc::thread_suspend(&t, q).map_err(|e| rerr(format!("thread-suspend: {e}")))?;
        Ok(Val::Unit)
    });
    def!("thread-raise!", 2, Some(2), |m, a| {
        let t = want_thread(m, a, 0, "thread-raise!")?;
        let v = m.arg(a, 1);
        let sv = m.to_value(v)?;
        tc::thread_raise(&t, sv).map_err(|e| rerr(format!("thread-raise!: {e}")))?;
        Ok(Val::Unit)
    });
    def!("thread-terminate", 1, Some(2), |m, a| {
        let t = want_thread(m, a, 0, "thread-terminate")?;
        let val = if a > 1 {
            let v = m.arg(a, 1);
            m.to_value(v)?
        } else {
            Value::Unit
        };
        tc::thread_terminate(&t, val).map_err(|e| rerr(format!("thread-terminate: {e}")))?;
        Ok(Val::Unit)
    });
    def!("thread-state", 1, Some(1), |m, a| {
        let t = want_thread(m, a, 0, "thread-state")?;
        let s = match t.state() {
            ThreadState::Delayed => "delayed",
            ThreadState::Scheduled => "scheduled",
            ThreadState::Evaluating => "evaluating",
            ThreadState::Blocked => "blocked",
            ThreadState::Suspended => "suspended",
            ThreadState::Stolen => "stolen",
            ThreadState::Determined => "determined",
        };
        Ok(Val::Sym(Symbol::intern(s).index()))
    });
    def!("current-thread", 0, Some(0), |m, _a| {
        let t = tc::current_thread().ok_or_else(|| rerr("current-thread: not on a thread"))?;
        Ok(thread_val(m, &t))
    });
    def!("yield-processor", 0, Some(0), |_m, _a| {
        tc::yield_now().map_err(|e| rerr(format!("yield-processor: {e}")))?;
        Ok(Val::Unit)
    });
    def!("current-vp", 0, Some(0), |_m, _a| {
        Ok(Val::Int(
            tc::current_vp().map(|v| v.index() as i64).unwrap_or(-1),
        ))
    });
    def!("vp-count", 0, Some(0), |_m, _a| {
        let cx = cx()?;
        Ok(Val::Int(cx.vm().vp_count() as i64))
    });
    def!("current-shard", 0, Some(0), |_m, _a| {
        // The calling thread's VM shard index (0 on an unsharded VM).
        Ok(Val::Int(tc::current_shard().unwrap_or(0) as i64))
    });
    // Flight recorder (scheduler event tracing).  `trace-start` /
    // `trace-stop` toggle recording on the running VM; `trace-dump`
    // returns the human-readable event log as a string; `trace-export`
    // writes chrome://tracing JSON to the given path and returns the
    // number of events exported.
    def!("trace-start", 0, Some(0), |_m, _a| {
        cx()?.vm().tracer().set_enabled(true);
        Ok(Val::Unit)
    });
    def!("trace-stop", 0, Some(0), |_m, _a| {
        cx()?.vm().tracer().set_enabled(false);
        Ok(Val::Unit)
    });
    def!("trace-count", 0, Some(0), |_m, _a| {
        Ok(Val::Int(cx()?.vm().tracer().recorded() as i64))
    });
    def!("trace-dump", 0, Some(0), |m, _a| {
        let dump = cx()?.vm().trace_dump();
        Ok(m.string(&dump))
    });
    // `trace-audit` replays the recording through the scheduler invariant
    // linter (sting_core::audit) and returns the report rendered as a
    // string — "trace audit: 0 finding(s) ..." on a clean run.
    def!("trace-audit", 0, Some(0), |m, _a| {
        let report = cx()?.vm().trace_audit();
        Ok(m.string(&report.to_string()))
    });
    def!("trace-export", 1, Some(1), |m, a| {
        let path = want_string(m, a, 0, "trace-export")?;
        let vm = cx()?.vm();
        let events = vm.tracer().snapshot();
        let json = sting_core::trace::chrome_json(vm.name(), &events);
        std::fs::write(&path, json).map_err(|e| rerr(format!("trace-export: {path}: {e}")))?;
        Ok(Val::Int(events.len() as i64))
    });
    def!("sleep-ms", 1, Some(1), |m, a| {
        let ms = want_int(m, a, 0, "sleep-ms")?;
        cx()?.sleep(Duration::from_millis(ms.max(0) as u64));
        Ok(Val::Unit)
    });
    def!("set-priority!", 1, Some(1), |m, a| {
        let p = want_int(m, a, 0, "set-priority!")?;
        cx()?.set_priority(p as i32);
        Ok(Val::Unit)
    });
    def!("set-quantum!", 1, Some(1), |m, a| {
        let q = want_int(m, a, 0, "set-quantum!")?;
        cx()?.set_quantum(q.max(1) as u32);
        Ok(Val::Unit)
    });
    def!("set-stealable!", 2, Some(2), |m, a| {
        let t = want_thread(m, a, 0, "set-stealable!")?;
        t.set_stealable(m.arg(a, 1).is_truthy());
        Ok(Val::Unit)
    });
    def!("thread-priority-set!", 2, Some(2), |m, a| {
        let t = want_thread(m, a, 0, "thread-priority-set!")?;
        t.set_priority(want_int(m, a, 1, "thread-priority-set!")? as i32);
        Ok(Val::Unit)
    });
    def!("without-preemption", 1, Some(1), |m, a| {
        let thunk = m.arg(a, 0);
        let cx = cx()?;
        // The thunk runs on this same TCB with preemption disabled.
        cx.without_preemption(|| m.apply(thunk, &[]))
    });
    def!("kill-group", 1, Some(2), |m, a| {
        let t = want_thread(m, a, 0, "kill-group")?;
        let val = if a > 1 {
            let v = m.arg(a, 1);
            m.to_value(v)?
        } else {
            Value::sym("group-killed")
        };
        t.group().terminate_all(val);
        Ok(Val::Unit)
    });

    // --- speculative / barrier synchronization -------------------------
    def!("wait-for-one", 1, Some(1), |m, a| {
        let ts = thread_list(m, a, 0, "wait-for-one")?;
        let (idx, r) = sting_sync::wait_for_one(&ts);
        let v = unwrap_result(m, r)?;
        m.push(Val::Int(idx as i64));
        m.push(v);
        Ok(m.list_from_stack(2))
    });
    def!("wait-for-one!", 1, Some(1), |m, a| {
        // The paper's wait-for-one: terminate the losers.
        let ts = thread_list(m, a, 0, "wait-for-one!")?;
        let (idx, r) = sting_sync::race(&ts);
        let v = unwrap_result(m, r)?;
        m.push(Val::Int(idx as i64));
        m.push(v);
        Ok(m.list_from_stack(2))
    });
    def!("wait-for-all", 1, Some(1), |m, a| {
        let ts = thread_list(m, a, 0, "wait-for-all")?;
        let rs = sting_sync::wait_for_all(&ts);
        let mut n = 0;
        for r in rs {
            let v = unwrap_result(m, r)?;
            m.push(v);
            n += 1;
        }
        Ok(m.list_from_stack(n))
    });
    def!("block-on-group", 2, Some(2), |m, a| {
        let count = want_int(m, a, 0, "block-on-group")? as usize;
        let ts = thread_list(m, a, 1, "block-on-group")?;
        sting_sync::block_on_group(count, &ts);
        Ok(Val::Unit)
    });

    // --- mutexes --------------------------------------------------------
    def!("make-mutex", 0, Some(2), |m, a| {
        let active = if a > 0 {
            want_int(m, a, 0, "make-mutex")? as u32
        } else {
            64
        };
        let passive = if a > 1 {
            want_int(m, a, 1, "make-mutex")? as u32
        } else {
            4
        };
        Ok(m.native(Mutex::new(active, passive).to_value()))
    });
    def!("mutex-acquire", 1, Some(2), |m, a| {
        // (mutex-acquire m [ms]): with a timeout, #t on acquisition and
        // #f if the lock was not obtained in time.
        let mx = want_native::<Mutex>(m, a, 0, "mutex-acquire")?;
        if a > 1 {
            let ms = want_ms(m, a, 1, "mutex-acquire")?;
            match mx.acquire_timeout(ms) {
                Ok(guard) => {
                    std::mem::forget(guard);
                    Ok(Val::Bool(true))
                }
                Err(_) => Ok(Val::Bool(false)),
            }
        } else {
            mx.acquire_manual();
            Ok(Val::Unit)
        }
    });
    def!("mutex-release", 1, Some(1), |m, a| {
        let mx = want_native::<Mutex>(m, a, 0, "mutex-release")?;
        mx.release();
        Ok(Val::Unit)
    });
    def!("with-mutex", 2, Some(2), |m, a| {
        let mx = want_native::<Mutex>(m, a, 0, "with-mutex")?;
        let thunk = m.arg(a, 1);
        mx.acquire_manual();
        let r = m.apply(thunk, &[]);
        mx.release();
        r
    });

    // --- semaphores and barriers ----------------------------------------
    def!("make-semaphore", 1, Some(1), |m, a| {
        let n = want_int(m, a, 0, "make-semaphore")? as usize;
        Ok(m.native(Semaphore::new(n).to_value()))
    });
    def!("semaphore-acquire", 1, Some(2), |m, a| {
        // (semaphore-acquire s [ms]): with a timeout, #t on acquisition
        // and #f if no permit arrived in time.
        let sem = want_native::<Semaphore>(m, a, 0, "semaphore-acquire")?;
        if a > 1 {
            let ms = want_ms(m, a, 1, "semaphore-acquire")?;
            Ok(Val::Bool(sem.acquire_timeout(ms).is_ok()))
        } else {
            sem.acquire();
            Ok(Val::Unit)
        }
    });
    def!("semaphore-release", 1, Some(1), |m, a| {
        want_native::<Semaphore>(m, a, 0, "semaphore-release")?.release();
        Ok(Val::Unit)
    });
    def!("make-barrier", 1, Some(1), |m, a| {
        let n = want_int(m, a, 0, "make-barrier")? as usize;
        Ok(m.native(Barrier::new(n).to_value()))
    });
    def!("barrier-arrive", 1, Some(2), |m, a| {
        // (barrier-arrive b [ms]): leader flag, or the symbol `timeout`
        // if the cycle did not complete in time (the arrival is
        // withdrawn).
        let b = want_native::<Barrier>(m, a, 0, "barrier-arrive")?;
        if a > 1 {
            let ms = want_ms(m, a, 1, "barrier-arrive")?;
            match b.arrive_timeout(ms) {
                Ok(leader) => Ok(Val::Bool(leader)),
                Err(_) => Ok(Val::Sym(Symbol::intern("timeout").index())),
            }
        } else {
            Ok(Val::Bool(b.arrive()))
        }
    });

    // --- channels --------------------------------------------------------
    def!("make-channel", 0, Some(1), |m, a| {
        // (make-channel [capacity]): unbounded without a capacity.
        let ch = if a > 0 {
            Channel::bounded(want_int(m, a, 0, "make-channel")? as usize)
        } else {
            Channel::unbounded()
        };
        Ok(m.native(ch.to_value()))
    });
    def!("channel-send", 2, Some(2), |m, a| {
        let ch = want_native::<Channel>(m, a, 0, "channel-send")?;
        let v = m.arg(a, 1);
        let sv = m.to_value(v)?;
        ch.send(sv)
            .map_err(|e| rerr(format!("channel-send: {e}")))?;
        Ok(Val::Unit)
    });
    def!("channel-recv", 1, Some(2), |m, a| {
        // (channel-recv ch [ms]): blocks for the next value; eof-object
        // once the channel is closed and drained; with a timeout, the
        // symbol `timeout` if nothing arrived in time.
        let ch = want_native::<Channel>(m, a, 0, "channel-recv")?;
        if a > 1 {
            let ms = want_ms(m, a, 1, "channel-recv")?;
            match ch.recv_timeout(ms) {
                Ok(Some(v)) => Ok(m.from_value(&v)),
                Ok(None) => Ok(Val::Eof),
                Err(_) => Ok(Val::Sym(Symbol::intern("timeout").index())),
            }
        } else {
            match ch.recv() {
                Some(v) => Ok(m.from_value(&v)),
                None => Ok(Val::Eof),
            }
        }
    });
    def!("channel-try-recv", 1, Some(1), |m, a| {
        // Non-blocking: #f when nothing is immediately available.
        let ch = want_native::<Channel>(m, a, 0, "channel-try-recv")?;
        match ch.try_recv() {
            Some(v) => Ok(m.from_value(&v)),
            None => Ok(Val::Bool(false)),
        }
    });
    def!("channel-close", 1, Some(1), |m, a| {
        want_native::<Channel>(m, a, 0, "channel-close")?.close();
        Ok(Val::Unit)
    });

    // --- streams ---------------------------------------------------------
    def!("make-stream", 0, Some(0), |m, _a| {
        Ok(m.native(Stream::new().to_value()))
    });
    def!("stream-attach!", 2, Some(2), |m, a| {
        let s = want_native::<Stream>(m, a, 0, "stream-attach!")?;
        let v = m.arg(a, 1);
        let sv = m.to_value(v)?;
        s.attach(sv);
        Ok(Val::Unit)
    });
    def!("stream-close!", 1, Some(1), |m, a| {
        want_native::<Stream>(m, a, 0, "stream-close!")?.close();
        Ok(Val::Unit)
    });
    def!("stream-cursor", 1, Some(1), |m, a| {
        let s = want_native::<Stream>(m, a, 0, "stream-cursor")?;
        Ok(m.native(Value::native(
            "stream-cursor",
            Arc::new(CursorHandle(PlMutex::new(s.cursor()))),
        )))
    });
    def!("cursor-hd", 1, Some(1), |m, a| {
        let c = want_native::<CursorHandle>(m, a, 0, "cursor-hd")?;
        let cur = c.0.lock().clone();
        match cur.hd() {
            Some(v) => Ok(m.from_value(&v)),
            None => Ok(Val::Eof),
        }
    });
    def!("cursor-rest", 1, Some(1), |m, a| {
        let c = want_native::<CursorHandle>(m, a, 0, "cursor-rest")?;
        let next = c.0.lock().rest();
        Ok(m.native(Value::native(
            "stream-cursor",
            Arc::new(CursorHandle(PlMutex::new(next))),
        )))
    });
    def!("cursor-next!", 1, Some(2), |m, a| {
        // (cursor-next! c [ms]): with a timeout, the symbol `timeout` is
        // returned (and the cursor does not advance) if no element
        // appeared in time; eof still means the stream closed.
        let c = want_native::<CursorHandle>(m, a, 0, "cursor-next!")?;
        let deadline = if a > 1 {
            Some(want_ms(m, a, 1, "cursor-next!")?)
        } else {
            None
        };
        let v = {
            // Clone out so we never hold the lock across a block.
            let snapshot = c.0.lock().clone();
            let mut cur = snapshot;
            let v = match deadline {
                Some(ms) => match cur.next_timeout(ms) {
                    Ok(v) => v,
                    Err(_) => return Ok(Val::Sym(Symbol::intern("timeout").index())),
                },
                None => cur.next(),
            };
            *c.0.lock() = cur;
            v
        };
        match v {
            Some(v) => Ok(m.from_value(&v)),
            None => Ok(Val::Eof),
        }
    });
    def!("eof-object?", 1, Some(1), |m, a| {
        Ok(Val::Bool(matches!(m.arg(a, 0), Val::Eof)))
    });

    // --- tuple spaces ------------------------------------------------------
    def!("make-ts", 0, Some(1), |m, a| {
        let kind = if a > 0 {
            match want_sym(m, a, 0, "make-ts")?.as_str().as_ref() {
                "hashed" => SpaceKind::default(),
                "queue" => SpaceKind::Queue,
                "stack" => SpaceKind::Stack,
                "bag" => SpaceKind::Bag,
                "set" => SpaceKind::Set,
                "shared-var" => SpaceKind::SharedVar,
                "semaphore" => SpaceKind::Semaphore,
                "vector" => SpaceKind::Vector,
                other => return Err(rerr(format!("make-ts: unknown kind {other}"))),
            }
        } else {
            SpaceKind::default()
        };
        Ok(m.native(TupleSpace::with_kind(kind).to_value()))
    });
    def!("ts-put", 2, Some(2), |m, a| {
        let ts = want_native::<TupleSpace>(m, a, 0, "ts-put")?;
        let items = want_list(m, a, 1, "ts-put")?;
        let mut fields = Vec::with_capacity(items.len());
        for &it in &items {
            fields.push(m.to_value(it)?);
        }
        ts.put(fields);
        Ok(Val::Unit)
    });
    def!("ts-get", 2, Some(3), |m, a| {
        // (ts-get ts tmpl [ms]): #f if nothing matched within `ms`.
        let ts = want_native::<TupleSpace>(m, a, 0, "ts-get")?;
        let t = want_template(m, a, 1, "ts-get")?;
        if a > 2 {
            let ms = want_ms(m, a, 2, "ts-get")?;
            match ts.get_timeout(&t, ms) {
                Some(b) => Ok(bindings_to_val(m, b)),
                None => Ok(Val::Bool(false)),
            }
        } else {
            let b = ts.get(&t);
            Ok(bindings_to_val(m, b))
        }
    });
    def!("ts-rd", 2, Some(3), |m, a| {
        // (ts-rd ts tmpl [ms]): #f if nothing matched within `ms`.
        let ts = want_native::<TupleSpace>(m, a, 0, "ts-rd")?;
        let t = want_template(m, a, 1, "ts-rd")?;
        if a > 2 {
            let ms = want_ms(m, a, 2, "ts-rd")?;
            match ts.rd_timeout(&t, ms) {
                Some(b) => Ok(bindings_to_val(m, b)),
                None => Ok(Val::Bool(false)),
            }
        } else {
            let b = ts.rd(&t);
            Ok(bindings_to_val(m, b))
        }
    });
    def!("ts-try-get", 2, Some(2), |m, a| {
        let ts = want_native::<TupleSpace>(m, a, 0, "ts-try-get")?;
        let t = want_template(m, a, 1, "ts-try-get")?;
        match ts.try_get(&t) {
            Some(b) => Ok(bindings_to_val(m, b)),
            None => Ok(Val::Bool(false)),
        }
    });
    def!("ts-try-rd", 2, Some(2), |m, a| {
        let ts = want_native::<TupleSpace>(m, a, 0, "ts-try-rd")?;
        let t = want_template(m, a, 1, "ts-try-rd")?;
        match ts.try_rd(&t) {
            Some(b) => Ok(bindings_to_val(m, b)),
            None => Ok(Val::Bool(false)),
        }
    });
    def!("ts-spawn", 2, Some(2), |m, a| {
        // (ts-spawn ts (list thunk...)): active tuple of Scheme threads.
        let ts = want_native::<TupleSpace>(m, a, 0, "ts-spawn")?;
        let thunks = want_list(m, a, 1, "ts-spawn")?;
        let cx = cx()?;
        let mut fields = Vec::with_capacity(thunks.len());
        for (i, &th) in thunks.iter().enumerate() {
            let _ = i;
            let sv = m.to_value(th)?;
            let t = machine::fork_thunk_value(
                &cx,
                m.program.clone(),
                m.globals.clone(),
                m.fluids.clone(),
                sv,
            );
            fields.push(t.to_value());
        }
        ts.put(fields);
        Ok(Val::Unit)
    });

    // --- fleets (sharded virtual machines) --------------------------------
    // A fleet is a set of cooperating VM shards on one physical machine
    // (sting_core::fleet): work spreads between shards over per-pair
    // mailboxes, and a sharded tuple space partitions its tuples across
    // the shards by the same (arity, field₀) hash its buckets use.
    def!("fleet-spawn", 1, Some(2), |m, a| {
        // (fleet-spawn n [vps-per-shard]): a traced fleet of n VM shards.
        let n = want_int(m, a, 0, "fleet-spawn")?.max(1) as usize;
        let vps = if a > 1 {
            want_int(m, a, 1, "fleet-spawn")?.max(1) as usize
        } else {
            1
        };
        let fleet = Fleet::builder()
            .shards(n)
            .vps_per_shard(vps)
            .trace(true)
            .build();
        Ok(m.native(Value::native("fleet", Arc::new(fleet))))
    });
    def!("fleet-size", 1, Some(1), |m, a| {
        let fleet = want_native::<Fleet>(m, a, 0, "fleet-size")?;
        Ok(Val::Int(fleet.len() as i64))
    });
    def!("fleet-fork", 3, Some(3), |m, a| {
        // (fleet-fork fleet shard thunk): run thunk as a thread on `shard`.
        let fleet = want_native::<Fleet>(m, a, 0, "fleet-fork")?;
        let shard = want_int(m, a, 1, "fleet-fork")? as usize;
        let thunk = want_thunk_value(m, a, 2, "fleet-fork")?;
        if shard >= fleet.len() {
            return Err(rerr(format!(
                "fleet-fork: shard {shard} out of range 0..{}",
                fleet.len()
            )));
        }
        let program = m.program.clone();
        let globals = m.globals.clone();
        let fluids = m.fluids.clone();
        let t = fleet.shard(shard).fork_try(move |cx2| {
            machine::run_thunk_in_fresh_machine(cx2, program, globals, fluids, &thunk)
        });
        Ok(thread_val(m, &t))
    });
    def!("fleet-ts", 1, Some(1), |m, a| {
        // (fleet-ts fleet): a tuple space partitioned across the shards.
        let fleet = want_native::<Fleet>(m, a, 0, "fleet-ts")?;
        Ok(m.native(ShardedSpace::new(&fleet).to_value()))
    });
    def!("fleet-ts-put", 2, Some(2), |m, a| {
        let ts = want_native::<ShardedSpace>(m, a, 0, "fleet-ts-put")?;
        let items = want_list(m, a, 1, "fleet-ts-put")?;
        let mut fields = Vec::with_capacity(items.len());
        for &it in &items {
            fields.push(m.to_value(it)?);
        }
        ts.put(fields);
        Ok(Val::Unit)
    });
    def!("fleet-ts-get", 2, Some(3), |m, a| {
        // (fleet-ts-get sts tmpl [ms]): #f if nothing matched within `ms`.
        let ts = want_native::<ShardedSpace>(m, a, 0, "fleet-ts-get")?;
        let t = want_template(m, a, 1, "fleet-ts-get")?;
        if a > 2 {
            let ms = want_ms(m, a, 2, "fleet-ts-get")?;
            match ts.get_timeout(&t, ms) {
                Some(b) => Ok(bindings_to_val(m, b)),
                None => Ok(Val::Bool(false)),
            }
        } else {
            let b = ts.get(&t);
            Ok(bindings_to_val(m, b))
        }
    });
    def!("fleet-ts-rd", 2, Some(3), |m, a| {
        // (fleet-ts-rd sts tmpl [ms]): #f if nothing matched within `ms`.
        let ts = want_native::<ShardedSpace>(m, a, 0, "fleet-ts-rd")?;
        let t = want_template(m, a, 1, "fleet-ts-rd")?;
        if a > 2 {
            let ms = want_ms(m, a, 2, "fleet-ts-rd")?;
            match ts.rd_timeout(&t, ms) {
                Some(b) => Ok(bindings_to_val(m, b)),
                None => Ok(Val::Bool(false)),
            }
        } else {
            let b = ts.rd(&t);
            Ok(bindings_to_val(m, b))
        }
    });
    def!("fleet-ts-try-get", 2, Some(2), |m, a| {
        let ts = want_native::<ShardedSpace>(m, a, 0, "fleet-ts-try-get")?;
        let t = want_template(m, a, 1, "fleet-ts-try-get")?;
        match ts.try_get(&t) {
            Some(b) => Ok(bindings_to_val(m, b)),
            None => Ok(Val::Bool(false)),
        }
    });
    def!("fleet-ts-try-rd", 2, Some(2), |m, a| {
        let ts = want_native::<ShardedSpace>(m, a, 0, "fleet-ts-try-rd")?;
        let t = want_template(m, a, 1, "fleet-ts-try-rd")?;
        match ts.try_rd(&t) {
            Some(b) => Ok(bindings_to_val(m, b)),
            None => Ok(Val::Bool(false)),
        }
    });
    def!("fleet-audit", 1, Some(1), |m, a| {
        // The fleet-wide merged replay through the invariant linter,
        // rendered as a string (shards' rings merge on the Lamport clock).
        let fleet = want_native::<Fleet>(m, a, 0, "fleet-audit")?;
        let report = fleet.trace_audit();
        Ok(m.string(&report.to_string()))
    });
    def!("fleet-handoffs", 1, Some(1), |m, a| {
        // Threads handed off between shards, summed over the fleet.
        let fleet = want_native::<Fleet>(m, a, 0, "fleet-handoffs")?;
        let n: u64 = fleet
            .shards()
            .iter()
            .map(|vm| vm.counters().snapshot().handoffs)
            .sum();
        Ok(Val::Int(n as i64))
    });
    def!("fleet-shutdown", 1, Some(1), |m, a| {
        let fleet = want_native::<Fleet>(m, a, 0, "fleet-shutdown")?;
        fleet.shutdown();
        Ok(Val::Unit)
    });

    // --- fluids (dynamic bindings) ---------------------------------------
    def!("make-fluid", 1, Some(1), |m, a| {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let init = m.arg(a, 0);
        let sv = m.to_value(init)?;
        m.fluids.insert(id, sv);
        Ok(m.native(Value::native("fluid", Arc::new(Fluid { id }))))
    });
    def!("fluid-ref", 1, Some(1), |m, a| {
        let f = want_native::<Fluid>(m, a, 0, "fluid-ref")?;
        match m.fluids.get(&f.id).cloned() {
            Some(v) => Ok(m.from_value(&v)),
            None => Ok(Val::Bool(false)),
        }
    });
    def!("fluid-set!", 2, Some(2), |m, a| {
        let f = want_native::<Fluid>(m, a, 0, "fluid-set!")?;
        let v = m.arg(a, 1);
        let sv = m.to_value(v)?;
        m.fluids.insert(f.id, sv);
        Ok(Val::Unit)
    });

    // --- introspection -----------------------------------------------------
    def!("substrate-counter", 1, Some(1), |m, a| {
        let which = want_sym(m, a, 0, "substrate-counter")?;
        let cx = cx()?;
        let snap = cx.vm().counters().snapshot();
        let n = match which.as_str().as_ref() {
            "threads-created" => snap.threads_created,
            "tcbs-allocated" => snap.tcbs_allocated,
            "stacks-recycled" => snap.stacks_recycled,
            "steals" => snap.steals,
            "context-switches" => snap.context_switches,
            "yields" => snap.yields,
            "preemptions" => snap.preemptions,
            "blocks" => snap.blocks,
            "wakeups" => snap.wakeups,
            "migrations" => snap.migrations,
            "handoffs" => snap.handoffs,
            "routed-ops" => snap.routed_ops,
            "determinations" => snap.determinations,
            "exceptions" => snap.exceptions,
            other => return Err(rerr(format!("substrate-counter: unknown counter {other}"))),
        };
        Ok(Val::Int(n as i64))
    });
    def!("gc-stats", 0, Some(0), |m, _a| {
        let s = m.heap.stats();
        let items = [
            Val::Int(s.minor_collections as i64),
            Val::Int(s.major_collections as i64),
            Val::Int(s.words_allocated as i64),
            Val::Int(s.words_copied as i64),
            Val::Int(s.promotions as i64),
        ];
        for it in items {
            m.push(it);
        }
        Ok(m.list_from_stack(5))
    });
    // (vm-metrics) -> ((name count min-ns mean-ns p50-ns p99-ns max-ns) ...)
    // for dispatch, steal, block-wake and gc-pause latency histograms (see
    // `sting_core::metrics`; scheduler rows are 1-in-N sampled).
    // (vm-metrics fleet) -> ((shard rows) ...): the same rows per shard.
    def!("vm-metrics", 0, Some(1), |m, a| {
        if a > 0 {
            let fleet = want_native::<Fleet>(m, a, 0, "vm-metrics")?;
            let shards: Vec<Arc<Vm>> = fleet.shards().to_vec();
            for (s, vm) in shards.iter().enumerate() {
                m.push(Val::Int(s as i64));
                let rows = metrics_rows(m, vm);
                m.push(rows);
                let entry = m.list_from_stack(2);
                m.push(entry);
            }
            return Ok(m.list_from_stack(shards.len()));
        }
        let vm = cx()?.vm().clone();
        Ok(metrics_rows(m, &vm))
    });
    // (vm-io-stats) -> (backend syscalls wakes): the VM's reactor-driver
    // counters — which backend the I/O driver runs ("epoll", or
    // "unstarted" before any I/O), how many kernel round-trips that
    // backend has made, and how many parked threads its dispatch woke.
    // syscalls/wakes is the reactor's per-wake syscall cost.
    def!("vm-io-stats", 0, Some(0), |m, _a| {
        let vm = cx()?.vm().clone();
        let stats = vm.io_driver().stats();
        m.push(Val::Sym(Symbol::intern(stats.backend).index()));
        m.push(Val::Int(stats.syscalls as i64));
        m.push(Val::Int(stats.wakes as i64));
        Ok(m.list_from_stack(3))
    });

    // --- sockets --------------------------------------------------------
    // Reactor-backed TCP (sting_core::net): each call blocks only the
    // calling STING thread; the optional trailing `ms` argument turns the
    // call into its deadline variant, returning the symbol `timeout`.
    def!("tcp-listen", 1, Some(1), |m, a| {
        let port = want_int(m, a, 0, "tcp-listen")?;
        let l = TcpListener::bind([0, 0, 0, 0], port.clamp(0, 65535) as u16)
            .map_err(|e| rerr(format!("tcp-listen: {e}")))?;
        Ok(m.native(Value::native("tcp-listener", Arc::new(l))))
    });
    def!("tcp-local-port", 1, Some(1), |m, a| {
        let l = want_native::<TcpListener>(m, a, 0, "tcp-local-port")?;
        let port = l
            .local_port()
            .map_err(|e| rerr(format!("tcp-local-port: {e}")))?;
        Ok(Val::Int(i64::from(port)))
    });
    def!("tcp-accept", 1, Some(2), |m, a| {
        let l = want_native::<TcpListener>(m, a, 0, "tcp-accept")?;
        let r = if a > 1 {
            let ms = want_ms(m, a, 1, "tcp-accept")?;
            l.accept_deadline(Instant::now() + ms)
        } else {
            l.accept()
        };
        match r {
            Ok(s) => Ok(m.native(Value::native("tcp-stream", Arc::new(s)))),
            Err(e) if e.is_timeout() => Ok(Val::Sym(Symbol::intern("timeout").index())),
            Err(e) => Err(rerr(format!("tcp-accept: {e}"))),
        }
    });
    def!("tcp-connect", 1, Some(2), |m, a| {
        // (tcp-connect port [ms]): loopback only — the substrate is a
        // concurrency testbed, not a sockets library.
        let port = want_int(m, a, 0, "tcp-connect")?.clamp(0, 65535) as u16;
        let r = if a > 1 {
            let ms = want_ms(m, a, 1, "tcp-connect")?;
            TcpStream::connect_deadline(LOCALHOST, port, Instant::now() + ms)
        } else {
            TcpStream::connect(LOCALHOST, port)
        };
        match r {
            Ok(s) => Ok(m.native(Value::native("tcp-stream", Arc::new(s)))),
            Err(e) if e.is_timeout() => Ok(Val::Sym(Symbol::intern("timeout").index())),
            Err(e) => Err(rerr(format!("tcp-connect: {e}"))),
        }
    });
    def!("tcp-read", 2, Some(3), |m, a| {
        // (tcp-read s n [ms]): up to n bytes as a string (lossy UTF-8),
        // the eof object at end-of-stream, `timeout` past the deadline.
        let s = want_native::<TcpStream>(m, a, 0, "tcp-read")?;
        let n = want_int(m, a, 1, "tcp-read")?.clamp(1, 1 << 20) as usize;
        let mut buf = vec![0u8; n];
        let r = if a > 2 {
            let ms = want_ms(m, a, 2, "tcp-read")?;
            s.read_deadline(&mut buf, Instant::now() + ms)
        } else {
            s.read(&mut buf)
        };
        match r {
            Ok(0) => Ok(Val::Eof),
            Ok(n) => Ok(m.string(&String::from_utf8_lossy(&buf[..n]))),
            Err(e) if e.is_timeout() => Ok(Val::Sym(Symbol::intern("timeout").index())),
            Err(e) => Err(rerr(format!("tcp-read: {e}"))),
        }
    });
    def!("tcp-write", 2, Some(3), |m, a| {
        // (tcp-write s str [ms]): writes the whole string; `timeout` past
        // the deadline (a prefix may already be out).
        let s = want_native::<TcpStream>(m, a, 0, "tcp-write")?;
        let data = want_string(m, a, 1, "tcp-write")?;
        let r = if a > 2 {
            let ms = want_ms(m, a, 2, "tcp-write")?;
            s.write_all_deadline(data.as_bytes(), Instant::now() + ms)
        } else {
            s.write_all(data.as_bytes())
        };
        match r {
            Ok(()) => Ok(Val::Unit),
            Err(e) if e.is_timeout() => Ok(Val::Sym(Symbol::intern("timeout").index())),
            Err(e) => Err(rerr(format!("tcp-write: {e}"))),
        }
    });
    def!("tcp-close", 1, Some(1), |m, a| {
        // Explicit close: the heap may hold the handle until collection,
        // so shut the socket down now (EOF to the peer).
        let s = want_native::<TcpStream>(m, a, 0, "tcp-close")?;
        s.close();
        Ok(Val::Unit)
    });
}

fn thread_list(
    m: &mut Machine,
    argc: usize,
    i: usize,
    who: &str,
) -> Result<Vec<Arc<Thread>>, SchemeError> {
    let items = want_list(m, argc, i, who)?;
    items
        .iter()
        .map(|&v| match v {
            Val::Native(slot) => m
                .heap
                .native(slot)
                .native_as::<Thread>()
                .ok_or_else(|| rerr(format!("{who}: list must contain threads"))),
            _ => Err(rerr(format!("{who}: list must contain threads"))),
        })
        .collect()
}
