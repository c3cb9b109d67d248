#!/usr/bin/env bash
# Flat host-time profile of one tca-bench scenario, per function and per
# source line, with no profiler installed: a SIGPROF sampler (C, built
# with the system cc) is preloaded into the release tca-bench, and the
# sampled addresses are symbolized with `addr2line -i`, so time inside an
# inlined function is charged to it rather than to its caller.
#
#   scripts/profile.sh <scenario> [--backend B]
#
# The kernel tick caps the sampler near 250 Hz, so the scenario runs
# three times (`--jobs 1`) and the samples are pooled. Output: the top
# functions and the top lines by share of samples; artifacts go to
# target/profile/. x86-64 Linux only (the sampler reads REG_RIP).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
    echo "usage: scripts/profile.sh <scenario> [--backend B]" >&2
    exit 2
}
[[ $# -ge 1 && $1 != -* ]] || usage
scenario=$1
shift
backend=tca
while [[ $# -gt 0 ]]; do
    case $1 in
        --backend)
            [[ $# -ge 2 ]] || usage
            backend=$2
            shift 2
            ;;
        *) usage ;;
    esac
done

out="$root/target/profile"
mkdir -p "$out"
cat >"$out/sampler.c" <<'EOF'
// Records the interrupted instruction on every SIGPROF tick; at exit,
// writes one line per sample to $PROF_OUT: "exe <file offset>" for the
// main program, "lib <symbol>" for anything else.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static void *pcs[MAX_SAMPLES];
static long taken;
static ElfW(Addr) exe_base;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = (void *)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static int main_object(struct dl_phdr_info *info, size_t size, void *base) {
    (void)size;
    *(ElfW(Addr) *)base = info->dlpi_addr;
    return 1;
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(main_object, &exe_base);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f)
        return;
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++) {
        Dl_info d = {0};
        if (dladdr(pcs[i], &d) && (ElfW(Addr))d.dli_fbase == exe_base)
            fprintf(f, "exe %#lx\n", (unsigned long)((ElfW(Addr))pcs[i] - exe_base));
        else
            fprintf(f, "lib %s\n", d.dli_sname ? d.dli_sname : "?");
    }
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$out/sampler.so" "$out/sampler.c" -ldl

cargo build -q --release --offline --manifest-path "$root/Cargo.toml" \
    -p tca-bench --bin tca-bench
exe="$root/target/release/tca-bench"

rm -f "$out"/samples.*
for run in 1 2 3; do
    PROF_OUT="$out/samples.$run" LD_PRELOAD="$out/sampler.so" \
        "$exe" --scenario "$scenario" --backend "$backend" --jobs 1 --json >/dev/null
done
cat "$out"/samples.* >"$out/samples"

# Innermost frame of each sampled address: "<address> <function> <file:line>".
awk '$1 == "exe" { print $2 }' "$out/samples" | sort -u |
    addr2line -a -f -i -C -e "$exe" |
    awk '/^0x/ { addr = $0; sub(/^0x0*/, "0x", addr); first = 1; next }
         first && !fn { fn = $0; next }
         first { sub(/ \(discriminator.*/, ""); n = split($0, dir, "/")
                 print addr "\t" fn "\t" (n > 1 ? dir[n - 1] "/" : "") dir[n]
                 fn = ""; first = 0 }' \
        >"$out/symbols"

# One "<function>\t<file:line>" line per sample.
awk -F'\t' 'NR == FNR { fn[$1] = $2; line[$1] = $3; next }
            $1 == "exe" { print fn[$2] "\t" line[$2]; next }
            { print $2 " [shared library]\t-" }' \
    "$out/symbols" <(tr ' ' '\t' <"$out/samples") >"$out/frames"

total=$(wc -l <"$out/frames")
echo "$scenario-$backend: $total samples over 3 runs"
report() {
    echo
    echo "== $1 =="
    cut -f"$2" "$out/frames" | sort | uniq -c | sort -rn | head -n 30 |
        awk -v t="$total" '{ n = $1; $1 = ""; printf "%6.2f%%  %s\n", 100 * n / t, substr($0, 2) }'
}
report "by function" 1
report "by line" 2
