;; Master/worker over a first-class tuple space: the master deposits 1000
;; jobs, three workers square them, the master collects the acks in order
;; and then poisons the workers.
;; Sum of k^2 for k = 0..999 is 999*1000*1999/6 = 332833500.
(define (farm n workers)
  (let ((ts (make-ts)))
    (define (worker)
      (fork-thread
        (lambda ()
          (let loop ()
            (let ((k (car (ts-get ts (list 'job '?)))))
              (if (< k 0)
                  'done
                  (begin (ts-put ts (list 'ack k (* k k))) (loop))))))))
    (let ((threads (map (lambda (w) (worker)) (iota workers))))
      (let put-loop ((k 0))
        (when (< k n) (ts-put ts (list 'job k)) (put-loop (+ k 1))))
      (let collect ((k 0) (total 0))
        (if (= k n)
            (begin
              (for-each (lambda (t) (ts-put ts (list 'job -1))) threads)
              (wait-for-all threads)
              total)
            (collect (+ k 1)
                     (+ total (car (ts-get ts (list 'ack k '?))))))))))

(farm 1000 3)
