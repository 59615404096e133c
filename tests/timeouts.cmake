# ctest timeouts for single discovered tests whose regression is a
# hang rather than a failure.  Listed in TEST_INCLUDE_FILES after
# gtest_discover_tests' own files, so the tests exist when it runs.
set_tests_properties(FlightScope.DumpsOnMetricKindClash
                     PROPERTIES TIMEOUT 60)
set_tests_properties(PacedRuntime.BusyCallerDoesNotStarveTheLoop
                     PROPERTIES TIMEOUT 60)
