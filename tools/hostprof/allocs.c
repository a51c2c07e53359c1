/* hostprof allocation sampler: preload into a process to see where it allocates.
 *
 * Every EVERY-th call to malloc, calloc or realloc (what the benchmark's
 * `allocs_per_op` counts) records the call stack with backtrace() into a
 * preallocated table. At exit the stacks and /proc/self/maps are written to
 * hostprof.<pid>.out in sampler.c's format, so fold.py reads them unchanged;
 * a sample is then one allocation in EVERY instead of a millisecond of CPU. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <stdio.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

/* A prime stride never beats in step with an allocation pattern. */
enum { EVERY = 37, DEPTH = 48, MAX_SAMPLES = 1 << 17 };

static void *stacks[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static unsigned long calls, samples;
static __thread int busy; /* backtrace() and the dump allocate themselves */

/* Not inlined: frame 0 is here and frame 1 in the allocator entry point, the
 * two frames fold.py drops (in sampler.c: the handler and the trampoline). */
__attribute__((noinline)) static void sample(void) {
    if (busy || __atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED) % EVERY)
        return;
    unsigned long i = __atomic_fetch_add(&samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) {
        busy = 1;
        depths[i] = backtrace(stacks[i], DEPTH);
        busy = 0;
    }
}

void *malloc(size_t n) { sample(); return __libc_malloc(n); }
void *calloc(size_t k, size_t n) { sample(); return __libc_calloc(k, n); }
void *realloc(void *p, size_t n) { sample(); return __libc_realloc(p, n); }

__attribute__((destructor)) static void dump(void) {
    busy = 1;
    unsigned long kept = samples < MAX_SAMPLES ? samples : MAX_SAMPLES;
    char path[64];
    snprintf(path, sizeof path, "hostprof.%d.out", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    /* Frame 2 is a return address, which fold.py reads as an interrupted pc:
     * step it back into the call here, as fold.py does for the frames above. */
    for (unsigned long i = 0; i < kept; i++) {
        for (int j = 0; j < depths[i]; j++)
            fprintf(out, "%p ", (void *)((char *)stacks[i][j] - (j == 2)));
        fputc('\n', out);
    }
    fputs("--maps--\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    if (maps)
        fclose(maps);
    fclose(out);
    fprintf(stderr, "hostprof: %lu of %lu allocations sampled in %s\n", kept, calls, path);
}
