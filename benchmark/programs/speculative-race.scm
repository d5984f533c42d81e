;; Speculative (OR-parallel) waiting: each round forks one thread that
;; computes fib(10) = 55 beside two that cannot answer until a gate opens,
;; takes the first result with `wait-for-one`, then opens the gate and
;; joins the losers so no thread outlives its round.
;; 60 rounds * 55 = 3300.
(define (fib n)
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))

(define (speculate)
  (let* ((gate (make-ts))
         (stuck (lambda () (car (ts-get gate (list 'go '?)))))
         (threads (list (fork-thread stuck)
                        (fork-thread (lambda () (fib 10)))
                        (fork-thread stuck)))
         (winner (wait-for-one threads)))
    (ts-put gate (list 'go 0))
    (ts-put gate (list 'go 0))
    (wait-for-all threads)
    (cadr winner)))

(let loop ((round 0) (total 0))
  (if (= round 60)
      total
      (loop (+ round 1) (+ total (speculate)))))
