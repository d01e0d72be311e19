"""Independent references the equivalence suites hold the product to:
the tuple-at-a-time chase (:mod:`.chase`), the Section 4.2 model
checker (:mod:`.verify`), the row diff between two cube versions
(:mod:`.delta`) and stdlib sqlite3 running the SQL target's printed
statements (:mod:`.sqlite`)."""
