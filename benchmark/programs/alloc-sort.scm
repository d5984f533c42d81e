;; Allocation churn through the thread's private heap: build a permutation
;; of 1..1008 as a list, merge-sort it (the prelude's `list-sort` conses a
;; fresh list per merge), and summarize the result.
;; 1009 is prime, so i -> 617*i mod 1009 permutes 1..1008; sorted, that is
;; 1, 2, ..., 1008, whose sum is 1008*1009/2 = 508536.
(define p 1009)

(define (permutation)
  (let loop ((i (- p 1)) (acc '()))
    (if (zero? i)
        acc
        (loop (- i 1) (cons (modulo (* i 617) p) acc)))))

(let ((s (list-sort < (permutation))))
  (list (car s) (cadr s) (last s) (length s) (sum s)))
