//! The interpreter facade: source text in, values out, threads underneath.
//!
//! An [`Interp`] pairs a STING virtual machine with a growing compiled
//! [`Program`] and a global environment of its own.  Each [`Interp::eval`]
//! reads, expands and compiles its input against a fresh immutable program
//! snapshot, then runs the resulting top-level code **on a STING thread**
//! of the machine (so top-level code can fork, block and be preempted like
//! any other thread).
//!
//! The prelude is compiled once per process (`prelude_image`); a new
//! interpreter starts from that program and only *runs* its definitions
//! into its own globals.

use crate::bytecode::Program;
use crate::compile;
use crate::error::SchemeError;
use crate::expand;
use crate::global::Globals;
use crate::machine::Machine;
use crate::prims;
use crate::reader;
use std::sync::{Arc, OnceLock};
use sting_areas::{HeapConfig, Val};
use sting_core::vm::Vm;
use sting_value::Value;

/// A Scheme interpreter bound to a STING virtual machine.
pub struct Interp {
    vm: Arc<Vm>,
    globals: Arc<Globals>,
    heap_config: HeapConfig,
}

impl std::fmt::Debug for Interp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interp")
            .field("globals", &self.globals.len())
            .finish()
    }
}

/// The prelude, read, expanded and compiled once per process: the program
/// every [`Interp::new`] starts from, and its top-level code objects in
/// source order.  Compilation consults no bindings, so one image serves
/// interpreters whose globals differ.
fn prelude_image() -> &'static (Arc<Program>, Vec<u32>) {
    static IMAGE: OnceLock<(Arc<Program>, Vec<u32>)> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut program = Program::default();
        let tops = reader::read_all(crate::PRELUDE)
            .expect("prelude reads")
            .iter()
            .map(|form| {
                let core = expand::expand_top(form).expect("prelude expands");
                compile::compile_top(&core, &mut program).expect("prelude compiles")
            })
            .collect();
        (Arc::new(program), tops)
    })
}

impl Interp {
    /// Creates an interpreter over `vm` with all primitives installed and
    /// the prelude (library procedures written in Scheme) loaded.  The
    /// global environment is private to this interpreter: two interpreters
    /// on one `vm` may redefine the same name without seeing each other.
    pub fn new(vm: Arc<Vm>) -> Interp {
        let i = Interp::bare(vm);
        let (image, tops) = prelude_image();
        *i.globals.program().lock() = image.clone();
        i.run_toplevels(image.clone(), tops.clone())
            .expect("prelude evaluates");
        i
    }

    /// Creates an interpreter with primitives but without the prelude (and,
    /// like [`Interp::new`], with a global environment of its own).
    pub fn bare(vm: Arc<Vm>) -> Interp {
        let globals = Arc::new(Globals::new());
        prims::install(&globals);
        Interp {
            vm,
            globals,
            heap_config: HeapConfig::default(),
        }
    }

    /// Sets the heap configuration used by top-level evaluation machines
    /// (thread machines created by `fork-thread` use the default).
    pub fn set_heap_config(&mut self, config: HeapConfig) {
        self.heap_config = config;
    }

    /// The underlying virtual machine.
    pub fn vm(&self) -> &Arc<Vm> {
        &self.vm
    }

    /// The shared global environment.
    pub fn globals(&self) -> &Arc<Globals> {
        &self.globals
    }

    /// Evaluates every form in `src`, returning the value of the last one.
    ///
    /// # Errors
    ///
    /// Read/expand/compile errors, or the raised value if the program
    /// raises an uncaught exception.
    pub fn eval(&self, src: &str) -> Result<Value, SchemeError> {
        let forms = reader::read_all(src)?;
        if forms.is_empty() {
            return Ok(Value::Unit);
        }
        let mut last = Value::Unit;
        for form in &forms {
            last = self.eval_form(form)?;
        }
        Ok(last)
    }

    fn eval_form(&self, form: &crate::sexp::Sexp) -> Result<Value, SchemeError> {
        // Compile against a snapshot extension (code objects are shared
        // with the previous snapshot, not copied).
        let (snapshot, code) = {
            let mut guard = self.globals.program().lock();
            let mut next: Program = (**guard).clone();
            let core = expand::expand_top(form)?;
            let code = compile::compile_top(&core, &mut next)?;
            let arc = Arc::new(next);
            *guard = arc.clone();
            (arc, code)
        };
        self.run_toplevels(snapshot, vec![code])
    }

    /// Runs top-level code objects of `program` in order on one STING
    /// thread and one machine (so the top level is a real thread),
    /// returning the value of the last.
    fn run_toplevels(&self, program: Arc<Program>, codes: Vec<u32>) -> Result<Value, SchemeError> {
        let globals = self.globals.clone();
        let config = self.heap_config;
        let t = self.vm.fork_try(move |_cx| -> Result<Value, Value> {
            let mut m = Machine::with_heap_config(program, globals, config);
            let run = (|| {
                let mut last = Val::Unit;
                for &code in &codes {
                    last = m.run_toplevel(code)?;
                }
                m.to_value(last)
            })();
            match run {
                Ok(sv) => Ok(sv),
                Err(SchemeError::Raised(e)) => Err(e),
                Err(other) => Err(Value::from(other.to_string())),
            }
        });
        t.join_blocking().map_err(SchemeError::Raised)
    }

    /// Evaluates and formats the result (REPL-style).
    ///
    /// # Errors
    ///
    /// As [`Interp::eval`].
    pub fn eval_to_string(&self, src: &str) -> Result<String, SchemeError> {
        Ok(self.eval(src)?.to_string())
    }
}
