"""Independent references the equivalence suites hold the product to:
the tuple-at-a-time chase (:mod:`.chase`), the Section 4.2 model
checker (:mod:`.verify`) and the row diff between two cube versions
(:mod:`.delta`)."""
