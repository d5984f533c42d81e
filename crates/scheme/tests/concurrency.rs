//! Scheme-level concurrency: the paper's own programming idioms running on
//! the substrate — futures, stealing, streams (the Figure 2 sieve), tuple
//! spaces, speculative and barrier synchronization, preemption.

use std::sync::Arc;
use sting_core::VmBuilder;
use sting_scheme::{Interp, SchemeError};
use sting_value::Value;

fn interp(vps: usize) -> (Arc<sting_core::Vm>, Interp) {
    let vm = VmBuilder::new().vps(vps).build();
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
fn fork_and_wait() {
    let (vm, i) = interp(1);
    assert_eq!(
        ev(&i, "(thread-wait (fork-thread (lambda () (* 6 7))))").as_int(),
        Some(42)
    );
    vm.shutdown();
}

#[test]
fn future_touch_sugar() {
    let (vm, i) = interp(1);
    assert_eq!(ev(&i, "(touch (future (+ 1 2)))").as_int(), Some(3));
    // delay = create-thread: runs only when demanded, usually stolen.
    assert_eq!(ev(&i, "(touch (delay (* 10 10)))").as_int(), Some(100));
    vm.shutdown();
}

#[test]
fn delayed_threads_are_stolen_on_touch() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        "(let ((before (substrate-counter 'steals))
               (l (delay 99)))
           (touch l)
           (- (substrate-counter 'steals) before))",
    );
    assert_eq!(v.as_int(), Some(1), "touch of a delayed thread steals it");
    vm.shutdown();
}

#[test]
fn thread_state_transitions_visible() {
    let (vm, i) = interp(1);
    assert_eq!(ev(&i, "(thread-state (delay 1))"), Value::sym("delayed"));
    assert_eq!(
        ev(
            &i,
            "(let ((t (fork-thread (lambda () 5)))) (thread-wait t) (thread-state t))"
        ),
        Value::sym("determined")
    );
    vm.shutdown();
}

#[test]
fn exceptions_cross_thread_boundaries() {
    let (vm, i) = interp(1);
    // The forked thread raises; the waiter observes it as an exception.
    match i.eval("(thread-wait (fork-thread (lambda () (raise 'child-boom))))") {
        Err(SchemeError::Raised(v)) => assert_eq!(v, Value::sym("child-boom")),
        other => panic!("{other:?}"),
    }
    // ... and can catch it.
    assert_eq!(
        ev(
            &i,
            "(try (thread-wait (fork-thread (lambda () (raise 'oops))))
                  (catch (e) (list 'caught e)))"
        )
        .to_string(),
        "(caught oops)"
    );
    vm.shutdown();
}

#[test]
fn closures_capture_across_fork() {
    let (vm, i) = interp(1);
    assert_eq!(
        ev(
            &i,
            "(let ((n 20)) (thread-wait (fork-thread (lambda () (+ n 22)))))"
        )
        .as_int(),
        Some(42)
    );
    vm.shutdown();
}

#[test]
fn fork_isolates_captured_state_from_parent() {
    // Copy-on-share: the child gets its own copy of the captured
    // environment at fork time (like Erlang process isolation); the
    // parent's frame is untouched.  Threads share state through the
    // substrate's synchronizing objects instead (tuple spaces, streams).
    let (vm, i) = interp(1);
    assert_eq!(
        ev(
            &i,
            "(let ((cell 1))
               (let ((child (fork-thread (lambda () (set! cell 41) cell))))
                 (list (thread-wait child) cell)))"
        )
        .to_string(),
        "(41 1)"
    );
    vm.shutdown();
}

#[test]
fn toplevel_closures_share_state_across_calls() {
    // But closures converted *once* (e.g. bound at top level) share their
    // environment between every caller — the shared-frame mechanism.
    let (vm, i) = interp(1);
    ev(
        &i,
        "(define counter (let ((n 0)) (lambda () (set! n (+ n 1)) n)))",
    );
    assert_eq!(ev(&i, "(counter)").as_int(), Some(1));
    assert_eq!(
        ev(&i, "(thread-wait (fork-thread (lambda () (counter))))").as_int(),
        Some(2),
        "a forked thread increments the same shared frame"
    );
    assert_eq!(ev(&i, "(counter)").as_int(), Some(3));
    vm.shutdown();
}

#[test]
fn sieve_of_eratosthenes_with_streams() {
    // Figure 2's sieve: filters connected by synchronizing streams.  Each
    // filter is an eager thread (the paper's third variant).
    let (vm, i) = interp(1);
    ev(
        &i,
        r#"
(define (make-filter n input output)
  ;; Remove multiples of n from input; forward the rest.
  (fork-thread
    (lambda ()
      (let loop ((c (stream-cursor input)))
        (let ((x (cursor-next! c)))
          (cond ((eof-object? x) (stream-close! output))
                ((zero? (modulo x n)) (loop c))
                (else (stream-attach! output x) (loop c))))))))

(define (sieve limit)
  (let ((numbers (make-stream)))
    ;; Producer.
    (fork-thread
      (lambda ()
        (let loop ((i 2))
          (if (> i limit)
              (stream-close! numbers)
              (begin (stream-attach! numbers i) (loop (+ i 1)))))))
    ;; Chain of filters, built as primes are discovered.
    (let loop ((in numbers) (primes '()))
      (let ((x (cursor-next! (stream-cursor in))))
        (if (eof-object? x)
            (reverse primes)
            (let ((out (make-stream)))
              (make-filter x in out)
              ;; Skip x itself on the filtered stream.
              (loop out (cons x primes))))))))
"#,
    );
    let primes = ev(&i, "(sieve 30)");
    assert_eq!(primes.to_string(), "(2 3 5 7 11 13 17 19 23 29)");
    vm.shutdown();
}

#[test]
fn primes_with_futures_figure_3() {
    // Figure 3: result-parallel primality with futures; touching walks the
    // dependency chain, stealing delayed work.
    let (vm, i) = interp(1);
    ev(
        &i,
        r#"
(define (filter-prime n primes)
  (let loop ((j 3))
    (cond ((> (* j j) n) (cons n (touch primes)))
          ((zero? (modulo n j)) (touch primes))
          (else (loop (+ j 2))))))

(define (primes limit)
  (let loop ((i 3) (primes (future (list 2))))
    (if (> i limit)
        (touch primes)
        (loop (+ i 2) (delay (filter-prime i primes))))))
"#,
    );
    let v = ev(&i, "(reverse (primes 50))");
    assert_eq!(v.to_string(), "(2 3 5 7 11 13 17 19 23 29 31 37 41 43 47)");
    vm.shutdown();
}

#[test]
fn tuple_space_master_slave() {
    let (vm, i) = interp(2);
    ev(
        &i,
        r#"
(define ts (make-ts))
(define (slave)
  (fork-thread
    (lambda ()
      (let loop ()
        (let ((job (ts-get ts (list 'job '?))))
          (let ((n (car job)))
            (if (< n 0)
                'done
                (begin
                  (ts-put ts (list 'ack n (* n n)))
                  (loop)))))))))
"#,
    );
    let v = ev(
        &i,
        r#"
(let ((workers (list (slave) (slave))))
  ;; Put 10 jobs, collect 10 acks, then poison the workers.
  (let put-loop ((n 0))
    (when (< n 10) (ts-put ts (list 'job n)) (put-loop (+ n 1))))
  (let collect ((n 0) (total 0))
    (if (= n 10)
        (begin
          (ts-put ts (list 'job -1))
          (ts-put ts (list 'job -1))
          (wait-for-all workers)
          total)
        (let ((ack (ts-get ts (list 'ack n '?))))
          (collect (+ n 1) (+ total (car ack)))))))
"#,
    );
    assert_eq!(v.as_int(), Some((0..10i64).map(|n| n * n).sum()));
    vm.shutdown();
}

#[test]
fn tuple_space_spawn_active_tuples() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        r#"
(let ((ts (make-ts)))
  (ts-spawn ts (list (lambda () (* 3 3)) (lambda () (* 4 4))))
  ;; Matching demands the threads' values.
  (let ((b (ts-get ts (list '? '?))))
    (+ (car b) (cadr b))))
"#,
    );
    assert_eq!(v.as_int(), Some(25));
    vm.shutdown();
}

#[test]
fn counter_idiom_get_put() {
    // The paper's (get TS [?x] (put TS [(+ x 1)])) increment.
    let (vm, i) = interp(2);
    let v = ev(
        &i,
        r#"
(let ((ts (make-ts)))
  (ts-put ts (list 0))
  (let ((workers
         (let loop ((k 0) (acc '()))
           (if (= k 4)
               acc
               (loop (+ k 1)
                     (cons (fork-thread
                            (lambda ()
                              (let loop ((n 0))
                                (when (< n 25)
                                  (let ((x (ts-get ts (list '?))))
                                    (ts-put ts (list (+ (car x) 1))))
                                  (loop (+ n 1))))))
                           acc))))))
    (wait-for-all workers)
    (car (ts-get ts (list '?)))))
"#,
    );
    assert_eq!(v.as_int(), Some(100));
    vm.shutdown();
}

#[test]
fn wait_for_one_speculative() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        r#"
(let* ((slow (fork-thread (lambda () (sleep-ms 500) 'slow)))
       (fast (fork-thread (lambda () 'fast)))
       (winner (wait-for-one! (list slow fast))))
  (cadr winner))
"#,
    );
    assert_eq!(v, Value::sym("fast"));
    vm.shutdown();
}

#[test]
fn wait_for_all_barrier() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        r#"
(let ((threads (map (lambda (n) (fork-thread (lambda () (* n 10))))
                    '(1 2 3 4))))
  (apply + (wait-for-all threads)))
"#,
    );
    assert_eq!(v.as_int(), Some(100));
    vm.shutdown();
}

#[test]
fn mutexes_protect_shared_state() {
    let (vm, i) = interp(2);
    let v = ev(
        &i,
        r#"
(let ((m (make-mutex 16 2))
      (ts (make-ts 'shared-var)))
  (ts-put ts (list 0))
  (let ((workers
         (map (lambda (k)
                (fork-thread
                 (lambda ()
                   (let loop ((n 0))
                     (when (< n 50)
                       (with-mutex m
                         (lambda ()
                           (let ((x (ts-get ts (list '?))))
                             (ts-put ts (list (+ (car x) 1))))))
                       (loop (+ n 1)))))))
              '(1 2))))
    (wait-for-all workers)
    (car (ts-rd ts (list '?)))))
"#,
    );
    assert_eq!(v.as_int(), Some(100));
    vm.shutdown();
}

#[test]
fn barriers_align_phases() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        r#"
(let ((b (make-barrier 3))
      (ts (make-ts 'queue)))
  (let ((workers
         (map (lambda (k)
                (fork-thread
                 (lambda ()
                   (ts-put ts (list 'phase1 k))
                   (barrier-arrive b)
                   (ts-put ts (list 'phase2 k)))))
              '(0 1 2))))
    (wait-for-all workers)
    ;; All phase1 tuples must precede all phase2 tuples in queue order.
    (let loop ((seen1 0) (ok #t))
      (let ((x (ts-try-get ts (list '? '?))))
        (if x
            (if (eq? (car x) 'phase1)
                (loop (+ seen1 1) (and ok (< seen1 3)))
                (loop seen1 (and ok (= seen1 3))))
            (if ok 'ordered 'interleaved))))))
"#,
    );
    assert_eq!(v, Value::sym("ordered"));
    vm.shutdown();
}

#[test]
fn preemption_interleaves_scheme_threads() {
    let (vm, i) = interp(1);
    // Two non-yielding spinners on one VP; the checkpoint every 256
    // bytecodes preempts each once its 500 µs slice is spent.
    let v = ev(
        &i,
        r#"
(let ((ts (make-ts 'shared-var)))
  (ts-put ts (list 'go))
  (let ((t1 (fork-thread (lambda () (let loop ((n 0)) (if (= n 60000) 'a (loop (+ n 1)))))))
        (t2 (fork-thread (lambda () (let loop ((n 0)) (if (= n 60000) 'b (loop (+ n 1))))))))
    (wait-for-all (list t1 t2))
    (substrate-counter 'preemptions)))
"#,
    );
    assert!(v.as_int().unwrap() > 0, "expected preemptions, got {v}");
    vm.shutdown();
}

#[test]
fn fluids_are_inherited_per_thread() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        r#"
(let ((f (make-fluid 'parent)))
  (fluid-set! f 'before-fork)
  (let ((child (fork-thread (lambda ()
                              (let ((inherited (fluid-ref f)))
                                (fluid-set! f 'child-own)
                                inherited)))))
    (let ((got (thread-wait child)))
      ;; The child's mutation is not visible here (dynamic env is
      ;; per-thread, inherited at fork).
      (list got (fluid-ref f)))))
"#,
    );
    assert_eq!(v.to_string(), "(before-fork before-fork)");
    vm.shutdown();
}

#[test]
fn terminate_and_kill_group() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        r#"
(let ((spinner (fork-thread (lambda () (let loop () (yield-processor) (loop))))))
  (thread-terminate spinner 'killed)
  (thread-wait spinner))
"#,
    );
    assert_eq!(v, Value::sym("killed"));
    vm.shutdown();
}

#[test]
fn explicit_vp_placement() {
    // Pinning is only meaningful under a non-migrating policy: the default
    // migrating policy may (correctly) move the thread to an idle VP.
    let vm = VmBuilder::new()
        .vps(3)
        .policy(|_| sting_core::policies::local_fifo().boxed())
        .build();
    let i = Interp::new(vm.clone());
    let v = ev(
        &i,
        r#"
(let ((t (fork-thread (lambda () (current-vp)) 2)))
  (list (vp-count) (thread-wait t)))
"#,
    );
    assert_eq!(v.to_string(), "(3 2)");
    vm.shutdown();
}

#[test]
fn without_preemption_runs_body() {
    let (vm, i) = interp(1);
    let v = ev(&i, "(without-preemption (lambda () (+ 20 22)))");
    assert_eq!(v.as_int(), Some(42));
    vm.shutdown();
}

#[test]
fn yield_processor_from_scheme() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        "(let ((t (fork-thread (lambda () 1)))) (yield-processor) (thread-wait t))",
    );
    assert_eq!(v.as_int(), Some(1));
    vm.shutdown();
}

#[test]
fn thread_raise_bang_from_scheme() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        r#"
(let ((victim (fork-thread (lambda () (let loop () (yield-processor) (loop))))))
  (thread-raise! victim 'poked)
  (try (thread-wait victim) (catch (e) (list 'caught e))))
"#,
    );
    assert_eq!(v.to_string(), "(caught poked)");
    vm.shutdown();
}

#[test]
fn prelude_helpers_available() {
    let (vm, i) = interp(2);
    assert_eq!(ev(&i, "(sum (iota 10))").as_int(), Some(45));
    assert_eq!(
        ev(&i, "(parallel-map (lambda (x) (* 2 x)) '(1 2 3))").to_string(),
        "(2 4 6)"
    );
    assert_eq!(ev(&i, "(every odd? '(1 3 5))"), Value::Bool(true));
    assert_eq!(ev(&i, "(any even? '(1 3 5))"), Value::Bool(false));
    assert_eq!(ev(&i, "(take '(1 2 3 4) 2)").to_string(), "(1 2)");
    assert_eq!(ev(&i, "(drop '(1 2 3 4) 2)").to_string(), "(3 4)");
    assert_eq!(
        ev(&i, "(force-promise (make-promise (lambda () 11)))").as_int(),
        Some(11)
    );
    vm.shutdown();
}

#[test]
fn prelude_sort_and_list_utilities() {
    let (vm, i) = interp(1);
    assert_eq!(
        ev(&i, "(list-sort < '(5 2 8 1 9 3 3 0))").to_string(),
        "(0 1 2 3 3 5 8 9)"
    );
    assert_eq!(ev(&i, "(list-sort < '())").to_string(), "()");
    assert_eq!(ev(&i, "(list-sort > '(1 2 3))").to_string(), "(3 2 1)");
    assert_eq!(ev(&i, "(remove odd? '(1 2 3 4))").to_string(), "(2 4)");
    assert_eq!(ev(&i, "(delete 2 '(1 2 3 2))").to_string(), "(1 3)");
    assert_eq!(ev(&i, "(list-index even? '(1 3 4 5))").as_int(), Some(2));
    assert_eq!(ev(&i, "(list-index even? '(1 3 5))"), Value::Bool(false));
    assert_eq!(
        ev(&i, "(append-map (lambda (x) (list x x)) '(1 2))").to_string(),
        "(1 1 2 2)"
    );
    assert_eq!(ev(&i, "(count odd? '(1 2 3 4 5))").as_int(), Some(3));
    // Sorting in parallel chunks, then merging — everything composes.
    assert_eq!(
        ev(
            &i,
            "(let ((halves (parallel-map (lambda (l) (list-sort < l))
                                         '((9 1 5) (8 2 0)))))
               (merge < (car halves) (cadr halves)))"
        )
        .to_string(),
        "(0 1 2 5 8 9)"
    );
    vm.shutdown();
}

#[test]
fn trace_prims_record_dump_and_export() {
    let (vm, i) = interp(1);
    ev(&i, "(trace-start)");
    assert_eq!(ev(&i, "(touch (delay (* 6 7)))").as_int(), Some(42));
    let n = ev(&i, "(trace-count)").as_int().unwrap();
    assert!(n > 0, "recording enabled: events should accumulate");
    let dump = ev(&i, "(trace-dump)");
    let text = dump.as_str().expect("trace-dump returns a string");
    assert!(text.contains("steal"), "delayed touch shows up as a steal");
    assert!(text.contains("fork"), "thread creation is recorded");
    // Export valid chrome JSON to a temp file and look inside.
    let path = std::env::temp_dir().join(format!("sting-trace-{}.json", std::process::id()));
    let exported = ev(&i, &format!("(trace-export \"{}\")", path.display()))
        .as_int()
        .unwrap();
    assert!(exported >= n, "export covers everything recorded so far");
    let json = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert!(json.contains("\"steal"));
    // The invariant linter is reachable from Scheme and this run is clean.
    let audit = ev(&i, "(trace-audit)");
    let report = audit.as_str().expect("trace-audit returns a string");
    assert!(report.starts_with("trace audit: 0 finding(s)"), "{report}");
    // trace-stop freezes the recording.
    ev(&i, "(trace-stop)");
    let frozen = ev(&i, "(trace-count)").as_int().unwrap();
    ev(&i, "(touch (delay 1))");
    assert_eq!(ev(&i, "(trace-count)").as_int().unwrap(), frozen);
    vm.shutdown();
}

#[test]
fn timed_blocking_forms_return_false_or_timeout() {
    let (vm, i) = interp(1);
    // thread-wait with a deadline: #f while running, the value once done.
    ev(
        &i,
        "(define slow (fork-thread (lambda () (sleep-ms 100) 'done)))",
    );
    assert_eq!(ev(&i, "(thread-wait slow 5)"), Value::Bool(false));
    assert_eq!(ev(&i, "(thread-wait slow)"), Value::sym("done"));
    // mutex-acquire: #f against a held lock, #t (still held!) when free.
    ev(&i, "(define m (make-mutex))");
    ev(&i, "(mutex-acquire m)");
    assert_eq!(ev(&i, "(mutex-acquire m 5)"), Value::Bool(false));
    ev(&i, "(mutex-release m)");
    assert_eq!(ev(&i, "(mutex-acquire m 5)"), Value::Bool(true));
    ev(&i, "(mutex-release m)");
    // semaphore-acquire: #f with no permits, #t after a release.
    ev(&i, "(define s (make-semaphore 0))");
    assert_eq!(ev(&i, "(semaphore-acquire s 5)"), Value::Bool(false));
    ev(&i, "(semaphore-release s)");
    assert_eq!(ev(&i, "(semaphore-acquire s 5)"), Value::Bool(true));
    // barrier-arrive: the arrival is withdrawn on timeout, so a later
    // full cycle still completes (which side is leader is a race).
    ev(&i, "(define b (make-barrier 2))");
    assert_eq!(ev(&i, "(barrier-arrive b 5)"), Value::sym("timeout"));
    ev(
        &i,
        "(define party (fork-thread (lambda () (barrier-arrive b))))",
    );
    assert_ne!(ev(&i, "(barrier-arrive b 1000)"), Value::sym("timeout"));
    ev(&i, "(thread-wait party)");
    // cursor-next!: `timeout` without advancing; the element is still
    // there for the retry.
    ev(&i, "(define st (make-stream))");
    ev(&i, "(define c (stream-cursor st))");
    assert_eq!(ev(&i, "(cursor-next! c 5)"), Value::sym("timeout"));
    ev(&i, "(stream-attach! st 'x)");
    assert_eq!(ev(&i, "(cursor-next! c 1000)"), Value::sym("x"));
    // ts-get / ts-rd: #f on timeout, bindings once a tuple arrives.
    ev(&i, "(define ts (make-ts))");
    assert_eq!(ev(&i, "(ts-get ts (list '?) 5)"), Value::Bool(false));
    assert_eq!(ev(&i, "(ts-rd ts (list '?) 5)"), Value::Bool(false));
    ev(&i, "(ts-put ts (list 42))");
    assert_eq!(ev(&i, "(car (ts-get ts (list '?) 1000))"), Value::Int(42));
    vm.shutdown();
}

#[test]
fn tcp_echo_between_scheme_threads() {
    let (vm, i) = interp(1);
    // Server and client are both Scheme-level STING threads on one VP;
    // every socket op parks only its own thread.
    let v = ev(
        &i,
        "(let* ((l (tcp-listen 0))
                (port (tcp-local-port l))
                (server (fork-thread
                          (lambda ()
                            (let* ((s (tcp-accept l))
                                   (msg (tcp-read s 16)))
                              (tcp-write s msg)
                              (tcp-close s)
                              'served))))
                (c (tcp-connect port)))
           (tcp-write c \"ping\")
           (let ((echoed (tcp-read c 16)))
             (thread-wait server)
             echoed))",
    );
    assert_eq!(v, Value::Str("ping".into()));
    vm.shutdown();
}

#[test]
fn vm_io_stats_reports_backend_and_counters() {
    let (vm, i) = interp(1);
    // Before any socket I/O the driver has not built its reactor.
    assert_eq!(ev(&i, "(car (vm-io-stats))"), Value::sym("unstarted"));
    // One echo round trip forces the driver up; afterwards the stats name
    // the epoll backend and show kernel work plus at least one wake.
    ev(
        &i,
        "(let* ((l (tcp-listen 0))
                (port (tcp-local-port l))
                (server (fork-thread
                          (lambda ()
                            (let* ((s (tcp-accept l))
                                   (msg (tcp-read s 16)))
                              (tcp-write s msg)
                              (tcp-close s)))))
                (c (tcp-connect port)))
           (tcp-write c \"ping\")
           (tcp-read c 16)
           (thread-wait server))",
    );
    let stats = ev(&i, "(vm-io-stats)");
    let items: Vec<Value> = stats.list_iter().cloned().collect();
    assert_eq!(items.len(), 3, "stats should be (backend syscalls wakes)");
    assert_eq!(items[0], Value::sym("epoll"), "unexpected backend");
    assert!(items[1].as_int().unwrap() > 0, "no syscalls counted");
    assert!(items[2].as_int().unwrap() > 0, "no wakes counted");
    vm.shutdown();
}

#[test]
fn tcp_deadlines_surface_as_timeout_symbol() {
    let (vm, i) = interp(1);
    let v = ev(
        &i,
        "(let ((l (tcp-listen 0)))
           (tcp-accept l 25))",
    );
    assert_eq!(v, Value::sym("timeout"));
    let v = ev(
        &i,
        "(let* ((l (tcp-listen 0))
                (c (tcp-connect (tcp-local-port l)))
                (s (tcp-accept l)))
           (tcp-read s 8 25))",
    );
    assert_eq!(v, Value::sym("timeout"));
    vm.shutdown();
}

#[test]
fn channels_send_recv_across_threads() {
    let (vm, i) = interp(2);
    // A producer feeds ten ints through a bounded channel; the consumer
    // sums them and sees eof after the close.
    let v = ev(
        &i,
        "(define ch (make-channel 4))
         (define producer
           (fork-thread
            (lambda ()
              (let loop ((n 1))
                (if (<= n 10)
                    (begin (channel-send ch n) (loop (+ n 1)))
                    (channel-close ch))))))
         (let loop ((total 0))
           (let ((v (channel-recv ch)))
             (if (eof-object? v)
                 (begin (thread-wait producer) total)
                 (loop (+ total v)))))",
    );
    assert_eq!(v.as_int(), Some(55));
    vm.shutdown();
}

#[test]
fn channel_try_recv_and_timeout() {
    let (vm, i) = interp(1);
    ev(&i, "(define ch (make-channel))");
    // Nothing queued: try-recv is #f, a timed recv reports 'timeout.
    assert_eq!(ev(&i, "(channel-try-recv ch)"), Value::Bool(false));
    assert_eq!(ev(&i, "(channel-recv ch 5)"), Value::sym("timeout"));
    ev(&i, "(channel-send ch 'ping)");
    assert_eq!(ev(&i, "(channel-try-recv ch)"), Value::sym("ping"));
    // Receiving from a closed channel yields eof, not an error.
    ev(&i, "(channel-close ch)");
    assert_eq!(ev(&i, "(eof-object? (channel-recv ch))"), Value::Bool(true));
    vm.shutdown();
}

#[test]
fn fleet_sharded_tuple_space_from_scheme() {
    // A fleet of 2 VM shards driven entirely from Scheme: master/slave
    // over a sharded tuple space, shard-aware metrics, fleet-wide audit.
    let (vm, i) = interp(1);
    ev(&i, "(define fl (fleet-spawn 2))");
    assert_eq!(ev(&i, "(fleet-size fl)").as_int(), Some(2));
    ev(&i, "(define sts (fleet-ts fl))");
    let v = ev(
        &i,
        r#"
(let ((worker
       (fleet-fork fl 0
         (lambda ()
           (let loop ((acc 0))
             (let ((job (fleet-ts-get sts (list 'job '?))))
               (let ((n (car job)))
                 (if (< n 0)
                     acc
                     (begin
                       (fleet-ts-put sts (list 'ack n (* n n)))
                       (loop (+ acc 1))))))))))
      (prober (fleet-fork fl 1 (lambda () (current-shard)))))
  ;; Deposits from the host VM take the off-fleet direct path.
  (let put-loop ((n 0))
    (when (< n 8) (fleet-ts-put sts (list 'job n)) (put-loop (+ n 1))))
  (let collect ((n 0) (total 0))
    (if (= n 8)
        (begin
          (fleet-ts-put sts (list 'job -1))
          (thread-wait worker)
          (+ total (* 1000 (thread-wait prober))))
        (let ((ack (fleet-ts-get sts (list 'ack n '?))))
          (collect (+ n 1) (+ total (car ack)))))))
"#,
    );
    let expect: i64 = (0..8i64).map(|n| n * n).sum::<i64>() + 1000;
    assert_eq!(v.as_int(), Some(expect));
    // Shard-aware metrics: one (shard rows) entry per shard.
    assert_eq!(ev(&i, "(length (vm-metrics fl))").as_int(), Some(2));
    let report = format!("{}", ev(&i, "(fleet-audit fl)"));
    assert!(
        report.contains("finding"),
        "unexpected audit shape: {report}"
    );
    ev(&i, "(fleet-shutdown fl)");
    vm.shutdown();
}

#[test]
fn a_global_written_in_a_forked_thread_is_seen_by_the_parent() {
    let (vm, i) = interp(2);
    ev(&i, "(define shared 0) (define (last-writer) 'nobody)");
    // The parent references both globals (and caches them) before the
    // children write them; after `wait-for-all` its next references must
    // see a write, not the cached values.  `shared` holds an immediate,
    // `last-writer` a closure: the two kinds of cached value.
    let v = ev(
        &i,
        "(let ((seen-before (list shared (last-writer))))
           (wait-for-all
             (map (lambda (k)
                    (fork-thread
                      (lambda ()
                        (set! shared (+ k 100))
                        (set! last-writer (lambda () 'a-child)))))
                  (iota 4)))
           (list seen-before (>= shared 100) (last-writer)))",
    );
    assert_eq!(v.to_string(), "((0 nobody) #t a-child)");
    vm.shutdown();
}

#[test]
fn a_procedure_redefined_by_define_is_seen_by_a_running_thread() {
    let (vm, i) = interp(2);
    // `define` binds a global only as a top-level form, so a thread sees a
    // redefinition only if it outlives the form that forked it: the worker
    // calls `(f)`, reports, waits to be told the redefinition is done, and
    // calls `(f)` again on the same machine.  The new value is a procedure
    // compiled after the fork.
    ev(&i, "(define (f) 'first) (define gate (make-ts))");
    ev(
        &i,
        "(define worker
           (fork-thread
             (lambda ()
               (let ((a (f)))
                 (ts-put gate (list 'called))
                 (ts-get gate (list 'redefined))
                 (list a (f))))))",
    );
    ev(&i, "(ts-get gate (list 'called))");
    ev(&i, "(define (f) 'second)");
    ev(&i, "(ts-put gate (list 'redefined))");
    assert_eq!(ev(&i, "(thread-wait worker)").to_string(), "(first second)");
    vm.shutdown();
}

#[test]
fn a_thread_calls_a_procedure_defined_after_the_form_that_forked_it() {
    let (vm, i) = interp(2);
    // The worker outlives the form that forked it and then calls `late`,
    // which a later form defines: code compiled after the worker's machine
    // took its program snapshot.
    ev(&i, "(define gate (make-ts))");
    ev(
        &i,
        "(define worker
           (fork-thread
             (lambda ()
               (ts-get gate (list 'defined))
               (late 1))))",
    );
    ev(&i, "(define (late x) (+ x 41))");
    ev(&i, "(ts-put gate (list 'defined))");
    assert_eq!(ev(&i, "(thread-wait worker)").as_int(), Some(42));
    vm.shutdown();
}
