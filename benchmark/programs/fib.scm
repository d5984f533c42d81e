;; Doubly recursive Fibonacci: calls, arithmetic and bytecode dispatch,
;; no allocation to speak of and no threads.
;; Expected by the recurrence: fib(20) = 6765.
(define (fib n)
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))

(fib 20)
