//! The Scheme machine under real garbage-collection pressure: tiny
//! nurseries, forced promotions and major collections, with environment
//! frames and closures live across every collection.

use sting_areas::HeapConfig;
use sting_core::VmBuilder;
use sting_scheme::Interp;

fn tight_interp() -> (std::sync::Arc<sting_core::Vm>, Interp) {
    let vm = VmBuilder::new().vps(1).build();
    let mut i = Interp::new(vm.clone());
    i.set_heap_config(HeapConfig {
        young_words: 4 * 1024,
        old_trigger_words: 24 * 1024,
    });
    (vm, i)
}

#[test]
fn retained_list_survives_major_collections() {
    let (vm, i) = tight_interp();
    // Builds and retains a 30k list: promotions + major collections, with
    // the named-let frame live the whole time.
    let v = i
        .eval(
            r#"
(begin
  (define (churn n acc) (if (= n 0) acc (churn (- n 1) (cons n acc))))
  (let ((l (churn 30000 '())))
    (list (length l) (car l) (list-ref l 29999) (cadr (gc-stats)))))
"#,
        )
        .unwrap();
    let items: Vec<i64> = v.list_iter().map(|x| x.as_int().unwrap()).collect();
    assert_eq!(items[0], 30000, "length preserved");
    assert_eq!(items[1], 1, "head preserved");
    assert_eq!(items[2], 30000, "tail preserved");
    assert!(items[3] > 0, "major collections happened: {items:?}");
    vm.shutdown();
}

#[test]
fn closures_and_frames_survive_major_collections() {
    let (vm, i) = tight_interp();
    // Closures capturing frames, stored in a long-lived structure that
    // gets promoted — the exact shape that once broke native pruning.
    let v = i
        .eval(
            r#"
(begin
  (define (make-adders n)
    (let loop ((i 0) (acc '()))
      (if (= i n)
          acc
          (loop (+ i 1) (cons (lambda (x) (+ x i)) acc)))))
  (define (churn n) (if (= n 0) 'done (begin (cons n n) (churn (- n 1)))))
  (let ((adders (make-adders 200)))
    (churn 60000)
    ;; Apply every closure after heavy collection pressure.
    (fold + 0 (map (lambda (f) (f 1)) adders))))
"#,
        )
        .unwrap();
    // Sum over f_i(1) = 1 + i for i in 0..200.
    assert_eq!(v.as_int(), Some((0..200i64).map(|i| 1 + i).sum()));
    vm.shutdown();
}

#[test]
fn string_and_vector_data_survive_pressure() {
    let (vm, i) = tight_interp();
    let v = i
        .eval(
            r#"
(begin
  (define v (make-vector 50 "x"))
  (define (fill! i)
    (when (< i 50)
      (vector-set! v i (string-append "item-" (number->string i)))
      (fill! (+ i 1))))
  (define (churn n) (if (= n 0) 'ok (begin (cons n n) (churn (- n 1)))))
  (fill! 0)
  (churn 50000)
  (list (vector-ref v 0) (vector-ref v 49) (vector-length v)))
"#,
        )
        .unwrap();
    assert_eq!(v.to_string(), "(\"item-0\" \"item-49\" 50)");
    vm.shutdown();
}

#[test]
fn native_live_only_on_the_operand_stack_survives_a_major_collection() {
    let (vm, i) = tight_interp();
    // `+` is pushed (a native slot) before its argument `(length (churn …))`
    // runs, so across the major collections `churn` forces the primitive is
    // referenced from the operand stack alone.  A root set that reports
    // only heap references lets `prune_natives` free the slot, and the call
    // then dies with "native slot pruned while still referenced".
    let v = i
        .eval(
            r#"
(begin
  (define (churn n acc) (if (= n 0) acc (churn (- n 1) (cons n acc))))
  (+ (length (churn 30000 '())) 1))
"#,
        )
        .unwrap();
    assert_eq!(v.as_int(), Some(30001));
    vm.shutdown();
}

#[test]
fn variadic_call_survives_a_collection_while_its_rest_list_is_built() {
    let (vm, i) = tight_interp();
    // Building the rest list allocates, so a collection can land between
    // reading the closure's captured environment and writing the callee's
    // frame; the frame must be built from the closure as it is *after* the
    // collection (the captured frame moves), and `tag` must still be there.
    let v = i
        .eval(
            r#"
(begin
  (define (make-collector tag) (lambda args (cons tag args)))
  (let ((collect (make-collector 'kept)))
    (let loop ((n 0) (ok 0))
      (if (= n 20000)
          ok
          (let ((r (collect n n n)))
            (loop (+ n 1)
                  (if (and (eq? (car r) 'kept) (= (length r) 4)) (+ ok 1) ok)))))))
"#,
        )
        .unwrap();
    assert_eq!(v.as_int(), Some(20000));
    vm.shutdown();
}
