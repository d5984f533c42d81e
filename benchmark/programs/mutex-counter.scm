;; Four threads increment one shared counter 1000 times each under a
;; mutex; the counter lives in a shared-variable tuple space.
;; 4 * 1000 = 4000.
(define (count-up threads rounds)
  (let ((m (make-mutex 16 2))
        (ts (make-ts 'shared-var)))
    (ts-put ts (list 0))
    (wait-for-all
      (map (lambda (k)
             (fork-thread
               (lambda ()
                 (let loop ((n 0))
                   (when (< n rounds)
                     (with-mutex m
                       (lambda ()
                         (let ((x (ts-get ts (list '?))))
                           (ts-put ts (list (+ (car x) 1))))))
                     (loop (+ n 1)))))))
           (iota threads)))
    (car (ts-rd ts (list '?)))))

(count-up 4 1000)
