"""Independent references the equivalence suites hold the product to:
the tuple-at-a-time chase (:mod:`.chase`) and the Section 4.2 model
checker (:mod:`.verify`)."""
