;; The paper's Figure 3: result-parallel primes with futures.  Each
;; candidate is a delayed thread holding the future of the primes below
;; it; touching the last one walks the chain, stealing delayed work.
;; There are 95 primes up to 500 and the largest is 499.
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

(let ((ps (primes 500)))
  (list (length ps) (car ps)))
