# Shared module: a release-flags override.
set(CMAKE_CXX_FLAGS_RELEASE "-Ofast")  # expect: fast-math
