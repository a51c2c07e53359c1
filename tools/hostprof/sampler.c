/* hostprof sampler: preload into a process to sample where its CPU time goes.
 *
 * SIGPROF fires every millisecond of CPU time the process burns
 * (setitimer(ITIMER_PROF)); the handler records the call stack with
 * backtrace() into a preallocated table. At exit the raw return addresses and
 * /proc/self/maps are written to hostprof.<pid>.out in the working directory;
 * fold.py turns that file into folded stacks. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <unistd.h>

enum { DEPTH = 48, MAX_SAMPLES = 1 << 16 }; /* a minute of CPU time */

static void *stacks[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static volatile int samples;

static void on_sigprof(int sig) {
    (void)sig;
    if (samples < MAX_SAMPLES) {
        depths[samples] = backtrace(stacks[samples], DEPTH);
        samples++;
    }
}

static void set_interval(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
    /* The first backtrace() loads the unwinder (it may call malloc); do that
     * here, not inside the signal handler. */
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa = {0};
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    set_interval(1000);
}

__attribute__((destructor)) static void dump(void) {
    set_interval(0);
    char path[64];
    snprintf(path, sizeof path, "hostprof.%d.out", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    for (int i = 0; i < samples; i++) {
        for (int j = 0; j < depths[i]; j++)
            fprintf(out, "%p ", stacks[i][j]);
        fputc('\n', out);
    }
    fputs("--maps--\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    if (maps)
        fclose(maps);
    fclose(out);
    fprintf(stderr, "hostprof: %d samples in %s\n", samples, path);
}
