//! End-to-end language tests: evaluation, closures, recursion, tail calls,
//! GC pressure, exceptions, and data structures.

use std::sync::Arc;
use sting_core::VmBuilder;
use sting_scheme::{Interp, SchemeError};
use sting_value::Value;

fn interp() -> (Arc<sting_core::Vm>, Interp) {
    let vm = VmBuilder::new().vps(1).build();
    let i = Interp::new(vm.clone());
    (vm, i)
}

fn ev(i: &Interp, src: &str) -> Value {
    match i.eval(src) {
        Ok(v) => v,
        Err(e) => panic!("eval {src:?} failed: {e}"),
    }
}

#[test]
fn literals_and_arithmetic() {
    let (vm, i) = interp();
    assert_eq!(ev(&i, "42").as_int(), Some(42));
    assert_eq!(ev(&i, "(+ 1 2 3)").as_int(), Some(6));
    assert_eq!(ev(&i, "(- 10 4 1)").as_int(), Some(5));
    assert_eq!(ev(&i, "(* 2 3 4)").as_int(), Some(24));
    assert_eq!(ev(&i, "(/ 10 4)").as_f64(), Some(2.5));
    assert_eq!(ev(&i, "(/ 10 2)").as_int(), Some(5));
    assert_eq!(ev(&i, "(quotient 7 2)").as_int(), Some(3));
    assert_eq!(ev(&i, "(remainder 7 2)").as_int(), Some(1));
    assert_eq!(ev(&i, "(modulo -7 2)").as_int(), Some(1));
    assert_eq!(ev(&i, "(modulo 7 -2)").as_int(), Some(-1));
    assert_eq!(ev(&i, "(+ 1.5 2)").as_f64(), Some(3.5));
    assert_eq!(ev(&i, "(expt 2 10)").as_int(), Some(1024));
    assert_eq!(ev(&i, "(max 1 5 3)").as_int(), Some(5));
    assert_eq!(ev(&i, "(min 4 2 8)").as_int(), Some(2));
    assert_eq!(ev(&i, "(abs -9)").as_int(), Some(9));
    vm.shutdown();
}

#[test]
fn comparisons_and_predicates() {
    let (vm, i) = interp();
    assert_eq!(ev(&i, "(< 1 2 3)"), Value::Bool(true));
    assert_eq!(ev(&i, "(< 1 3 2)"), Value::Bool(false));
    assert_eq!(ev(&i, "(= 2 2 2)"), Value::Bool(true));
    assert_eq!(ev(&i, "(>= 3 3 2)"), Value::Bool(true));
    assert_eq!(ev(&i, "(zero? 0)"), Value::Bool(true));
    assert_eq!(ev(&i, "(even? 4)"), Value::Bool(true));
    assert_eq!(ev(&i, "(odd? 4)"), Value::Bool(false));
    assert_eq!(ev(&i, "(null? '())"), Value::Bool(true));
    assert_eq!(ev(&i, "(pair? '(1))"), Value::Bool(true));
    assert_eq!(ev(&i, "(symbol? 'a)"), Value::Bool(true));
    assert_eq!(ev(&i, "(string? \"s\")"), Value::Bool(true));
    assert_eq!(ev(&i, "(procedure? car)"), Value::Bool(true));
    assert_eq!(ev(&i, "(procedure? (lambda (x) x))"), Value::Bool(true));
    assert_eq!(ev(&i, "(procedure? 3)"), Value::Bool(false));
    vm.shutdown();
}

#[test]
fn define_lambda_closures() {
    let (vm, i) = interp();
    ev(&i, "(define (add a b) (+ a b))");
    assert_eq!(ev(&i, "(add 2 3)").as_int(), Some(5));
    ev(&i, "(define (make-adder n) (lambda (x) (+ x n)))");
    ev(&i, "(define add10 (make-adder 10))");
    assert_eq!(ev(&i, "(add10 5)").as_int(), Some(15));
    // Closures share mutable state through their environment.
    ev(
        &i,
        "(define (make-counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))",
    );
    ev(&i, "(define c (make-counter))");
    assert_eq!(ev(&i, "(c)").as_int(), Some(1));
    assert_eq!(ev(&i, "(c)").as_int(), Some(2));
    vm.shutdown();
}

#[test]
fn recursion_and_tail_calls() {
    let (vm, i) = interp();
    ev(&i, "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))");
    assert_eq!(ev(&i, "(fact 10)").as_int(), Some(3_628_800));
    // Deep tail recursion must not overflow anything.
    ev(
        &i,
        "(define (count n acc) (if (= n 0) acc (count (- n 1) (+ acc 1))))",
    );
    assert_eq!(ev(&i, "(count 1000000 0)").as_int(), Some(1_000_000));
    // Named let.
    assert_eq!(
        ev(
            &i,
            "(let loop ((n 5) (acc 1)) (if (= n 0) acc (loop (- n 1) (* acc n))))"
        )
        .as_int(),
        Some(120)
    );
    vm.shutdown();
}

#[test]
fn let_forms() {
    let (vm, i) = interp();
    assert_eq!(ev(&i, "(let ((a 1) (b 2)) (+ a b))").as_int(), Some(3));
    assert_eq!(ev(&i, "(let* ((a 1) (b (+ a 1))) b)").as_int(), Some(2));
    assert_eq!(
        ev(&i, "(letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1))))) (odd? (lambda (n) (if (= n 0) #f (even? (- n 1)))))) (even? 100))"),
        Value::Bool(true)
    );
    vm.shutdown();
}

#[test]
fn conditionals() {
    let (vm, i) = interp();
    assert_eq!(ev(&i, "(if #f 1 2)").as_int(), Some(2));
    assert_eq!(ev(&i, "(if 0 1 2)").as_int(), Some(1), "0 is truthy");
    assert_eq!(ev(&i, "(cond (#f 1) (#t 2) (else 3))").as_int(), Some(2));
    assert_eq!(ev(&i, "(cond (#f 1) (else 3))").as_int(), Some(3));
    assert_eq!(ev(&i, "(cond (42))").as_int(), Some(42));
    assert_eq!(
        ev(
            &i,
            "(case 2 ((1) 'one) ((2 3) 'two-or-three) (else 'other))"
        ),
        Value::sym("two-or-three")
    );
    assert_eq!(
        ev(&i, "(case 9 ((1) 'one) (else 'other))"),
        Value::sym("other")
    );
    assert_eq!(ev(&i, "(and 1 2 3)").as_int(), Some(3));
    assert_eq!(ev(&i, "(and 1 #f 3)"), Value::Bool(false));
    assert_eq!(ev(&i, "(or #f 2)").as_int(), Some(2));
    assert_eq!(ev(&i, "(or #f #f)"), Value::Bool(false));
    assert_eq!(ev(&i, "(when #t 1 2)").as_int(), Some(2));
    assert_eq!(ev(&i, "(unless #t 1)"), Value::Bool(false));
    vm.shutdown();
}

#[test]
fn lists_and_pairs() {
    let (vm, i) = interp();
    assert_eq!(ev(&i, "(car '(1 2 3))").as_int(), Some(1));
    assert_eq!(ev(&i, "(cadr '(1 2 3))").as_int(), Some(2));
    assert_eq!(ev(&i, "(length '(a b c))").as_int(), Some(3));
    assert_eq!(
        ev(&i, "(append '(1 2) '(3) '(4 5))").to_string(),
        "(1 2 3 4 5)"
    );
    assert_eq!(ev(&i, "(reverse '(1 2 3))").to_string(), "(3 2 1)");
    assert_eq!(ev(&i, "(list-ref '(a b c) 1)"), Value::sym("b"));
    assert_eq!(ev(&i, "(member 2 '(1 2 3))").to_string(), "(2 3)");
    assert_eq!(ev(&i, "(assq 'b '((a 1) (b 2)))").to_string(), "(b 2)");
    assert_eq!(
        ev(&i, "(map (lambda (x) (* x x)) '(1 2 3))").to_string(),
        "(1 4 9)"
    );
    assert_eq!(
        ev(&i, "(map + '(1 2 3) '(10 20 30))").to_string(),
        "(11 22 33)"
    );
    assert_eq!(ev(&i, "(filter odd? '(1 2 3 4 5))").to_string(), "(1 3 5)");
    assert_eq!(ev(&i, "(apply + 1 2 '(3 4))").as_int(), Some(10));
    // Mutation (within one toplevel form; globals are value snapshots —
    // see DESIGN.md on copy-on-share).
    assert_eq!(
        ev(&i, "(let ((p (cons 1 2))) (set-car! p 10) (car p))").as_int(),
        Some(10)
    );
    vm.shutdown();
}

#[test]
fn vectors_and_strings() {
    let (vm, i) = interp();
    assert_eq!(
        ev(&i, "(vector-length (make-vector 5 0))").as_int(),
        Some(5)
    );
    assert_eq!(
        ev(
            &i,
            "(let ((v (vector 1 2 3))) (vector-set! v 1 99) (vector-ref v 1))"
        )
        .as_int(),
        Some(99)
    );
    assert_eq!(ev(&i, "(vector->list #(1 2))").to_string(), "(1 2)");
    assert_eq!(ev(&i, "(string-length \"hello\")").as_int(), Some(5));
    assert_eq!(
        ev(&i, "(string-append \"foo\" \"bar\")").as_str(),
        Some("foobar")
    );
    assert_eq!(ev(&i, "(substring \"hello\" 1 3)").as_str(), Some("el"));
    assert_eq!(ev(&i, "(string=? \"a\" \"a\")"), Value::Bool(true));
    assert_eq!(ev(&i, "(string->symbol \"wee\")"), Value::sym("wee"));
    assert_eq!(ev(&i, "(symbol->string 'wee)").as_str(), Some("wee"));
    assert_eq!(ev(&i, "(string->number \"42\")").as_int(), Some(42));
    assert_eq!(ev(&i, "(number->string 42)").as_str(), Some("42"));
    assert_eq!(ev(&i, "(char->integer #\\A)").as_int(), Some(65));
    vm.shutdown();
}

#[test]
fn equality() {
    let (vm, i) = interp();
    assert_eq!(ev(&i, "(eq? 'a 'a)"), Value::Bool(true));
    assert_eq!(ev(&i, "(eq? '(1) '(1))"), Value::Bool(false));
    assert_eq!(ev(&i, "(equal? '(1 (2)) '(1 (2)))"), Value::Bool(true));
    assert_eq!(ev(&i, "(equal? \"ab\" \"ab\")"), Value::Bool(true));
    assert_eq!(ev(&i, "(let ((x '(1))) (eq? x x))"), Value::Bool(true));
    vm.shutdown();
}

#[test]
fn quasiquote() {
    let (vm, i) = interp();
    assert_eq!(ev(&i, "`(1 2 ,(+ 1 2))").to_string(), "(1 2 3)");
    assert_eq!(ev(&i, "`(1 ,@(list 2 3) 4)").to_string(), "(1 2 3 4)");
    assert_eq!(ev(&i, "`a"), Value::sym("a"));
    vm.shutdown();
}

#[test]
fn exceptions() {
    let (vm, i) = interp();
    // try/catch.
    assert_eq!(
        ev(&i, "(try (+ 1 (raise 'boom)) (catch (e) e))"),
        Value::sym("boom")
    );
    assert_eq!(ev(&i, "(try 42 (catch (e) 'unused))").as_int(), Some(42));
    // Uncaught exceptions surface as SchemeError::Raised.
    match i.eval("(raise 'oops)") {
        Err(SchemeError::Raised(v)) => assert_eq!(v, Value::sym("oops")),
        other => panic!("expected raise, got {other:?}"),
    }
    // error builds a structured exception value.
    match i.eval("(error \"bad thing\" 42)") {
        Err(SchemeError::Raised(v)) => {
            let items: Vec<_> = v.list_iter().cloned().collect();
            assert_eq!(items[0], Value::sym("error"));
            assert_eq!(items[1].as_str(), Some("bad thing"));
            assert_eq!(items[2].as_int(), Some(42));
        }
        other => panic!("expected raise, got {other:?}"),
    }
    // Handler can re-raise.
    match i.eval("(try (raise 1) (catch (e) (raise (+ e 1))))") {
        Err(SchemeError::Raised(v)) => assert_eq!(v.as_int(), Some(2)),
        other => panic!("{other:?}"),
    }
    vm.shutdown();
}

#[test]
fn runtime_errors_are_raised() {
    let (vm, i) = interp();
    assert!(i.eval("(car 5)").is_err());
    assert!(i.eval("(undefined-proc 1)").is_err());
    assert!(i.eval("(vector-ref (vector 1) 5)").is_err());
    assert!(i.eval("(/ 1 0)").is_err());
    assert!(i.eval("((lambda (x) x) 1 2)").is_err(), "arity");
    // But they are catchable.
    assert_eq!(
        ev(&i, "(try (car 5) (catch (e) 'caught))"),
        Value::sym("caught")
    );
    vm.shutdown();
}

#[test]
fn runtime_errors_cite_source_positions() {
    let (vm, i) = interp();
    // The offending call starts at line 2, column 3.
    let err = i
        .eval("(define (id x) x)\n  (id 1 2)")
        .expect_err("arity mismatch")
        .to_string();
    assert!(err.contains("(at 2:3)"), "no span in: {err}");
    let err = i
        .eval("\n (no-such-fn)")
        .expect_err("unbound variable")
        .to_string();
    assert!(err.contains("(at 2:2)"), "no span in: {err}");
    vm.shutdown();
}

#[test]
fn variadic_procedures() {
    let (vm, i) = interp();
    ev(&i, "(define (f . args) (length args))");
    assert_eq!(ev(&i, "(f 1 2 3)").as_int(), Some(3));
    assert_eq!(ev(&i, "(f)").as_int(), Some(0));
    ev(&i, "(define (g a . rest) (cons a rest))");
    assert_eq!(ev(&i, "(g 1 2 3)").to_string(), "(1 2 3)");
    vm.shutdown();
}

#[test]
fn internal_defines() {
    let (vm, i) = interp();
    assert_eq!(
        ev(
            &i,
            "(define (h x) (define y 10) (define (inner) (* x y)) (inner)) (h 4)"
        )
        .as_int(),
        Some(40)
    );
    vm.shutdown();
}

#[test]
fn do_and_while_loops() {
    let (vm, i) = interp();
    assert_eq!(
        ev(&i, "(do ((i 0 (+ i 1)) (acc 0 (+ acc i))) ((= i 5) acc))").as_int(),
        Some(10)
    );
    assert_eq!(
        ev(&i, "(let ((n 0)) (while (< n 5) (set! n (+ n 1))) n)").as_int(),
        Some(5)
    );
    vm.shutdown();
}

#[test]
fn gc_pressure_deep_structures() {
    let (vm, i) = interp();
    // Allocate heavily: build and sum a long list; many nursery collections.
    ev(&i, "(define (iota n) (let loop ((i 0) (acc '())) (if (= i n) (reverse acc) (loop (+ i 1) (cons i acc)))))");
    assert_eq!(
        ev(&i, "(apply + (iota 10000))").as_int(),
        Some((0..10000i64).sum())
    );
    // gc-stats: (minor major allocated copied promotions)
    let stats = ev(&i, "(begin (iota 50000) (gc-stats))");
    let minor = stats.list_iter().next().unwrap().as_int().unwrap();
    assert!(minor > 0, "expected minor collections, stats = {stats}");
    vm.shutdown();
}

#[test]
fn higher_order_and_y_combinator_style() {
    let (vm, i) = interp();
    ev(&i, "(define (compose f g) (lambda (x) (f (g x))))");
    ev(&i, "(define inc (lambda (x) (+ x 1)))");
    assert_eq!(ev(&i, "((compose inc inc) 5)").as_int(), Some(7));
    ev(
        &i,
        "(define (fold f init lst) (if (null? lst) init (fold f (f init (car lst)) (cdr lst))))",
    );
    assert_eq!(ev(&i, "(fold + 0 '(1 2 3 4))").as_int(), Some(10));
    vm.shutdown();
}

#[test]
fn multiple_toplevel_forms_share_globals() {
    let (vm, i) = interp();
    let v = ev(&i, "(define a 1) (define b 2) (+ a b)");
    assert_eq!(v.as_int(), Some(3));
    // Later evals see earlier definitions.
    assert_eq!(ev(&i, "(+ a b)").as_int(), Some(3));
    ev(&i, "(set! a 100)");
    assert_eq!(ev(&i, "a").as_int(), Some(100));
    vm.shutdown();
}

#[test]
fn fibonacci_exercises_the_machine() {
    let (vm, i) = interp();
    ev(
        &i,
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
    );
    assert_eq!(ev(&i, "(fib 15)").as_int(), Some(610));
    vm.shutdown();
}

// --- The per-machine global cache (DESIGN.md, "The binding-cell rule").
// Only a `define` that is itself a top-level form binds a global, and every
// top-level form runs on a machine of its own; so each test defines its
// globals in forms of their own and then makes the references that must
// agree inside one form — one machine, one cache.

#[test]
fn a_procedure_rebound_by_set_is_seen_by_the_next_call() {
    let (vm, i) = interp();
    ev(&i, "(define (f) 'first)");
    let v = ev(
        &i,
        "(let* ((a (f))
                (b (begin (set! f (lambda () 'second)) (f)))
                (c (begin (set! f (lambda () 'third)) (f))))
           (list a b c (f)))",
    );
    assert_eq!(v.to_string(), "(first second third third)");
    vm.shutdown();
}

#[test]
fn rebinding_a_primitive_to_a_closure_takes_effect() {
    let (vm, i) = interp();
    ev(&i, "(define plus +)");
    let v = ev(
        &i,
        "(let* ((before (+ 1 2))
                (during (begin (set! + (lambda (a b) (* a b))) (+ 3 4)))
                (after (begin (set! + plus) (+ 3 4))))
           (list before during after))",
    );
    assert_eq!(v.to_string(), "(3 12 7)");
    vm.shutdown();
}

#[test]
fn a_global_holding_mutable_data_is_a_fresh_copy_per_reference() {
    let (vm, i) = interp();
    // Pinned, not endorsed: a pair, vector or string crosses into the
    // referring thread's heap by copy each time it is referenced, so a
    // mutation through one reference is invisible through the next.  The
    // cache must not change that by handing the same object out twice.
    ev(
        &i,
        "(define l (list 1 2)) (define v (vector 1 2)) (define s \"ab\")",
    );
    let v = ev(
        &i,
        "(begin
           (set-car! l 99)
           (vector-set! v 0 99)
           (list (car l) (vector-ref v 0) (eq? l l) (eq? v v) (eq? s s)))",
    );
    assert_eq!(v.to_string(), "(1 1 #f #f #f)");
    // Immutable bindings are one object however often they are named.
    assert_eq!(
        ev(&i, "(list (eq? car car) (eq? list-sort list-sort))").to_string(),
        "(#t #t)"
    );
    vm.shutdown();
}

#[test]
fn an_unbound_global_raises_with_its_span_each_time() {
    let (vm, i) = interp();
    // Twice in one machine: the second reference finds the slot already
    // resolved to a cell, still unbound.
    let v = ev(
        &i,
        "(define (probe) (%try (lambda () nowhere) (lambda (e) e)))\n(list (probe) (probe))",
    );
    let messages: Vec<String> = v.list_iter().map(|m| m.to_string()).collect();
    assert_eq!(messages.len(), 2);
    for m in &messages {
        assert!(m.contains("unbound variable: nowhere (at 1:23)"), "got {m}");
    }
    // And once defined, the same slot resolves.
    ev(&i, "(define nowhere 'here)");
    assert_eq!(ev(&i, "(probe)").to_string(), "here");
    vm.shutdown();
}

#[test]
fn writing_one_global_leaves_references_to_others_on_the_fast_path() {
    let (vm, i) = interp();
    ev(
        &i,
        "(define counter 0)
         (define items (list 1 2 3))
         (define (bump!) (set! counter (+ counter 1)))
         (define (spin n) (let loop ((k 0)) (when (< k n) (bump!) (loop (+ k 1)))))",
    );
    // 10 000 iterations, each naming `<`, `bump!`, `+` (twice) and
    // `counter`, and writing `counter`.  Per machine, each name misses the
    // cache once; after that the write re-arms only the writer's own entry
    // for `counter`, so nothing else ever takes the slow path again.
    let before = i.globals().activity().slow_reads;
    assert_eq!(
        ev(&i, "(begin (spin 10000) counter)").as_int(),
        Some(10_000)
    );
    let slow = i.globals().activity().slow_reads - before;
    assert!(
        slow <= 8,
        "{slow} slow-path global references across 10 000 writes of another global"
    );
    // A binding that holds mutable data is never cached: every reference
    // is a slow one, by design.
    let before = i.globals().activity().slow_reads;
    ev(
        &i,
        "(let loop ((k 0)) (when (< k 100) items (loop (+ k 1))))",
    );
    let slow = i.globals().activity().slow_reads - before;
    assert!(
        (100..=108).contains(&slow),
        "{slow} slow references to a list"
    );
    vm.shutdown();
}

#[test]
fn interpreters_on_one_vm_keep_private_globals() {
    let vm = VmBuilder::new().vps(1).build();
    let (a, b) = (Interp::new(vm.clone()), Interp::new(vm.clone()));
    // Both start from the one compiled prelude; redefining a prelude
    // procedure in one must not show in the other.
    ev(&a, "(define (iota n) 'mine)");
    assert_eq!(ev(&a, "(iota 3)").to_string(), "mine");
    assert_eq!(ev(&b, "(iota 3)").to_string(), "(0 1 2)");
    ev(&b, "(define only-in-b 1)");
    assert!(a.eval("only-in-b").is_err());
    // A bare interpreter has the primitives and nothing else.
    let bare = Interp::bare(vm.clone());
    assert_eq!(ev(&bare, "(+ 1 2)").as_int(), Some(3));
    assert!(bare.eval("(iota 3)").is_err());
    vm.shutdown();
}

#[test]
fn fixnum_comparisons_are_exact() {
    let (vm, i) = interp();
    // Neighbours that one `f64` cannot tell apart: above 2^53 and near
    // the top of the fixnum range.
    assert_eq!(
        ev(
            &i,
            "(list (= 1152921504606846975 1152921504606846974)
                   (< 1152921504606846974 1152921504606846975)
                   (= 9007199254740993 9007199254740992))"
        )
        .to_string(),
        "(#f #t #f)"
    );
    assert_eq!(
        ev(&i, "(list (> -1152921504606846976 -1152921504606846975) (>= 9007199254740993 9007199254740992) (<= 9007199254740993 9007199254740992))").to_string(),
        "(#f #t #f)"
    );
    assert_eq!(
        ev(&i, "(list (max 9007199254740992 9007199254740993) (min 9007199254740993 9007199254740992))").to_string(),
        "(9007199254740993 9007199254740992)"
    );
    // A float on either side still compares as a float.
    assert_eq!(
        ev(&i, "(list (= 1 1.0) (< 1 1.5) (> 2.5 2))").to_string(),
        "(#t #t #t)"
    );
    vm.shutdown();
}

/// The message of the error evaluating `src` raises.
fn err_of(i: &Interp, src: &str) -> String {
    match i.eval(src) {
        Ok(v) => panic!("eval {src:?} returned {v}, expected an error"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn redefining_a_primitive_reaches_calls_compiled_before() {
    let (vm, i) = interp();
    ev(&i, "(define (add3 x) (+ x 3))");
    assert_eq!(ev(&i, "(add3 4)").as_int(), Some(7));
    ev(&i, "(define (+ a b) 42)");
    assert_eq!(ev(&i, "(add3 4)").as_int(), Some(42));
    assert_eq!(ev(&i, "(+ 1 2)").as_int(), Some(42));
    vm.shutdown();
}

#[test]
fn a_global_rebound_from_a_primitive_to_a_closure_and_back() {
    let (vm, i) = interp();
    ev(&i, "(define (inc x) (+ x 1))");
    ev(&i, "(define saved +)");
    // One form, one machine: each rebinding moves the binding's version
    // under a reference this machine has already cached.
    assert_eq!(
        ev(
            &i,
            "(let* ((before (inc 1))
                    (during (begin (set! + (lambda (a b) (list 'closure a b))) (inc 1)))
                    (after (begin (set! + saved) (inc 1))))
               (list before during after))"
        )
        .to_string(),
        "(2 (closure 1 1) 2)"
    );
    // Across forms, and through a tail call of the global.
    ev(&i, "(define (tail-add a b) (+ a b))");
    ev(&i, "(set! + -)");
    assert_eq!(ev(&i, "(list (inc 1) (tail-add 5 2))").to_string(), "(0 3)");
    ev(&i, "(set! + saved)");
    assert_eq!(ev(&i, "(list (inc 1) (tail-add 5 2))").to_string(), "(2 7)");
    vm.shutdown();
}

#[test]
fn a_primitive_called_through_a_variable_runs_like_a_named_one() {
    let (vm, i) = interp();
    // `f` and `less?` are locals, so these are generic calls whose callee
    // turns out to be a primitive.
    assert_eq!(ev(&i, "(fold + 0 '(1 2 3 4))").as_int(), Some(10));
    assert_eq!(
        ev(&i, "(fold cons '() '(1 2 3))").to_string(),
        "(((() . 1) . 2) . 3)"
    );
    assert_eq!(
        ev(&i, "(list-sort < '(3 1 2 5 4))").to_string(),
        "(1 2 3 4 5)"
    );
    assert_eq!(
        ev(
            &i,
            "(let ((f car) (g +)) (list (f '(9)) (g 1.5 2) (g 1 2)))"
        )
        .to_string(),
        "(9 3.5 3)"
    );
    vm.shutdown();
}

#[test]
fn car_rebound_by_another_thread_reaches_a_calling_loop() {
    let vm = VmBuilder::new().vps(2).build();
    let i = Interp::new(vm.clone());
    // The loop calls `car` until it answers as `cdr` does: the other
    // thread's `set!` moved the binding's version under the loop's cached
    // reference.  Once seen, the new binding stays.
    let v = ev(
        &i,
        "(define cell '(1 . 2))
         (define (watch n)
           (let loop ((k 0))
             (if (= k n)
                 'never-saw-it
                 (if (= (car cell) 2)
                     (list 'saw-it (car cell) (car cell))
                     (loop (+ k 1))))))
         (let ((t (fork-thread (lambda () (set! car cdr) 'rebound))))
           (list (watch 100000000) (thread-wait t)))",
    );
    assert_eq!(v.to_string(), "((saw-it 2 2) rebound)");
    vm.shutdown();
}

#[test]
fn calling_an_unbound_or_non_procedure_global_cites_the_call() {
    let (vm, i) = interp();
    ev(&i, "(define (f) (nowhere 1 2))");
    let e = err_of(&i, "(f)");
    assert!(e.contains("unbound variable: nowhere (at 1:13)"), "got {e}");
    ev(&i, "(define notproc 5)");
    ev(&i, "(define (g) (notproc 1))");
    let e = err_of(&i, "(g)");
    assert!(e.contains("not a procedure: 5 (at 1:13)"), "got {e}");
    ev(&i, "(define (h) (list (notproc 1)))");
    let e = err_of(&i, "(h)");
    assert!(e.contains("not a procedure: 5 (at 1:19)"), "got {e}");
    vm.shutdown();
}

#[test]
fn inline_primitives_leave_errors_to_the_table() {
    let (vm, i) = interp();
    for (src, message) in [
        ("(car)", "car: expected 1 arguments, got 0"),
        ("(car 1 2)", "car: expected 1 arguments, got 2"),
        ("(car 5)", "car: expected pair, got 5"),
        ("(cdr '())", "cdr: expected pair, got ()"),
        ("(+ 1 'a)", "+: expected number, got a"),
        ("(< 1 'a)", "<: expected number, got a"),
        ("(zero? 'a)", "zero?: expected number, got a"),
        ("(not)", "not: expected 1 arguments, got 0"),
        ("(eq? 1)", "eq?: expected 2 arguments, got 1"),
    ] {
        let e = err_of(&i, src);
        assert!(e.contains(message), "{src}: got {e}");
        // The same call in tail position inside a procedure.
        let e = err_of(&i, &format!("((lambda () {src}))"));
        assert!(e.contains(message), "{src} in tail position: got {e}");
    }
    // The cases the inline path declines still answer.
    assert_eq!(
        ev(&i, "(list (+ 1 2.5) (- 2 1 1) (< 1 2 3) (zero? 0.0) (- 7))").to_string(),
        "(3.5 0 #t #t -7)"
    );
    vm.shutdown();
}

#[test]
fn deep_recursion_through_stack_frames_survives_collections() {
    let vm = VmBuilder::new().vps(1).build();
    let mut i = Interp::new(vm.clone());
    i.set_heap_config(sting_areas::HeapConfig {
        young_words: 4 * 1024,
        old_trigger_words: 24 * 1024,
    });
    // The prelude's `merge` recurses once per element, 5 000 deep, and its
    // conses fill the nursery several times while every frame is live.
    let v = ev(
        &i,
        "(let* ((evens (let loop ((k 4998) (acc '())) (if (< k 0) acc (loop (- k 2) (cons k acc)))))
                (odds (map (lambda (x) (+ x 1)) evens))
                (before (car (gc-stats)))
                (merged (merge < evens odds))
                (after (car (gc-stats))))
           (list (> after before) merged))",
    );
    let items: Vec<Value> = v.list_iter().cloned().collect();
    assert_eq!(items[0], Value::Bool(true), "no collection in the middle");
    let merged: Vec<i64> = items[1].list_iter().filter_map(Value::as_int).collect();
    assert_eq!(merged, (0..5000).collect::<Vec<i64>>());
    // A comparator that allocates collects inside the recursion's callee.
    let v = ev(
        &i,
        "(let ((xs (merge (lambda (a b) (< (car (list a)) b)) (iota 2500) (iota 2500))))
           (list (length xs) (apply + xs)))",
    );
    assert_eq!(v.to_string(), "(5000 6247500)");
    vm.shutdown();
}

#[test]
fn integer_overflow_raises_instead_of_crashing() {
    let (vm, i) = interp();
    // FIXNUM_MAX = 2^60 - 1 and FIXNUM_MIN = -2^60: an integer outside
    // that range cannot be stored, so the primitive that would make one
    // raises `<name>: overflow`.
    let max = "1152921504606846975";
    let min = "(- -1152921504606846975 1)";
    for (src, name) in [
        (format!("(list (+ {max} 1))"), "+"),
        (format!("(list (+ 1 2 {max}))"), "+"),
        (format!("(list (- {min} 1))"), "-"),
        (format!("(list (- {min}))"), "-"),
        (format!("(list (* {max} 2))"), "*"),
        (format!("(list (abs {min}))"), "abs"),
        (format!("(list (1+ {max}))"), "1+"),
        (format!("(list (1- {min}))"), "1-"),
        ("(list (expt 2 60))".to_string(), "expt"),
        (format!("(list (quotient {min} -1))"), "quotient"),
        ("(list (floor 1e30))".to_string(), "floor"),
        (
            "(list (string->number \"1152921504606846976\"))".to_string(),
            "string->number",
        ),
    ] {
        let err = i.eval(&src).expect_err(&src).to_string();
        assert!(
            err.contains(&format!("{name}: overflow")),
            "{src}: expected `{name}: overflow`, got {err}"
        );
    }
    // The edges themselves are fixnums, and a float beside them stays a
    // float.
    assert_eq!(
        ev(
            &i,
            &format!("(list (+ {max} 0) (- {min} 0) (expt 2 59) (+ {max} 1.0))")
        )
        .to_string(),
        "(1152921504606846975 -1152921504606846976 576460752303423488 1152921504606846976.0)"
    );
    // A literal outside the range is a read error at its own position.
    match i.eval("(list\n  1152921504606846976)") {
        Err(SchemeError::Read(msg)) => assert!(msg.contains("2:3"), "{msg}"),
        other => panic!("expected a read error, got {other:?}"),
    }
    vm.shutdown();
}

#[test]
fn equal_walks_long_lists() {
    // One VP: the comparison runs on a green thread's stack.
    let (vm, i) = interp();
    assert_eq!(
        ev(&i, "(equal? (iota 50000) (iota 50000))"),
        Value::Bool(true)
    );
    assert_eq!(
        ev(
            &i,
            "(equal? (iota 50000)
                     (let loop ((k 49998) (acc (list 0)))
                       (if (< k 0) acc (loop (- k 1) (cons k acc)))))"
        ),
        Value::Bool(false)
    );
    vm.shutdown();
}

#[test]
fn equal_ends_on_circular_lists() {
    // Native primitives have no preemption point: a walk that never ends
    // would hold the only VP for good.
    let (vm, i) = interp();
    let circ = |l: &str| {
        format!(
            "(let ((l (list {l})))
               (let close ((p l)) (if (null? (cdr p)) (set-cdr! p l) (close (cdr p))))
               l)"
        )
    };
    for (a, b, want) in [
        ("1", "1", true),
        ("1", "1 1", true),
        ("1 2", "1 2 1 2 1 2", true),
        ("1", "1 2", false),
        ("1 2 3", "1 2", false),
    ] {
        let form = format!("(equal? {} {})", circ(a), circ(b));
        assert_eq!(ev(&i, &form), Value::Bool(want), "{form}");
    }
    // A circular list against a proper one, and member over a cycle.
    assert_eq!(
        ev(&i, &format!("(equal? {} (list 1 1 1))", circ("1"))),
        Value::Bool(false)
    );
    assert_eq!(
        ev(
            &i,
            &format!("(if (member {} (list 0 {})) #t #f)", circ("1"), circ("1 1"))
        ),
        Value::Bool(true)
    );
    vm.shutdown();
}

#[test]
fn list_primitives_walk_in_place() {
    let (vm, i) = interp();
    // `list` conses straight from its arguments, however many.
    let many = (0..250)
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    assert_eq!(
        ev(&i, &format!("(apply + (list {many}))")).as_int(),
        Some(249 * 250 / 2)
    );
    assert_eq!(ev(&i, "(list)").to_string(), "()");
    assert_eq!(ev(&i, "(length (iota 50000))").as_int(), Some(50_000));
    assert_eq!(ev(&i, "(length '())").as_int(), Some(0));
    assert!(err_of(&i, "(length (cons 1 2))").contains("length: expected a proper list"));
    // A cycle of every length up to four ends in the same error rather
    // than holding the only VP.
    for n in 1..=4 {
        let l = (1..=n).map(|k| k.to_string()).collect::<Vec<_>>().join(" ");
        let form = format!(
            "(let ((l (list {l})))
               (let close ((p l)) (if (null? (cdr p)) (set-cdr! p l) (close (cdr p))))
               (length l))"
        );
        assert!(
            err_of(&i, &form).contains("length: expected a proper list"),
            "{form}"
        );
    }
    // The tuple-space primitives read their lists in the same walk.
    assert!(
        err_of(&i, "(ts-put (make-ts) (cons 'job 1))").contains("ts-put: expected a proper list")
    );
    assert_eq!(
        ev(&i, "(let ((ts (make-ts))) (ts-put ts (list 'job 1 2 3 4 5)) (ts-get ts (list 'job '? '? '? '? '?)))")
            .to_string(),
        "(1 2 3 4 5)"
    );
    vm.shutdown();
}
