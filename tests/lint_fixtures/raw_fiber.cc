// LINT-AS: src/sim/bad_raw_fiber.cc
// Fixture for tools/lint_malt_api.py --selftest: ucontext switches outside
// src/base/fiber.* (use malt::Fiber, which saves the per-fiber exception
// state and annotates every switch for ASan / TSan). Not compiled.

#include <ucontext.h>

#include "src/base/fiber.h"

void Bad(ucontext_t* from, ucontext_t* to, void (*fn)()) {
  getcontext(to);  // EXPECT-LINT(raw-fiber)
  makecontext(to, fn, 0);  // EXPECT-LINT(raw-fiber)
  swapcontext(from, to);  // EXPECT-LINT(raw-fiber)
  setcontext(from);  // EXPECT-LINT(raw-fiber)
}

void Good(malt::Fiber& fiber) {
  fiber.Resume();  // the sanctioned switch
}
