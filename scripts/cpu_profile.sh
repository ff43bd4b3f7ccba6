#!/usr/bin/env bash
# CPU profile of one command by SIGPROF sampling, with nothing installed
# but a C compiler and binutils. An LD_PRELOAD library, built here from
# the source below with `cc`, arms ITIMER_PROF (the process's CPU time,
# every thread's) and writes the interrupted stack of every tick, taken
# with glibc's backtrace(); at exit it lists where each loaded file's
# code was mapped. `addr2line -i` then names every frame, inlined ones
# included, and the report gives each function's share of all samples:
# self (the sample stopped in it) and inclusive (it was anywhere on the
# stack).
#
#   scripts/cpu_profile.sh [--under FRAME] [--out DIR] -- COMMAND [ARG...]
#
#   --under FRAME    also report the samples with a frame whose name
#                    contains FRAME, and the callees that share them
#   --out DIR        where the samples, the file list and the report go
#                    (default: a new directory under ${TMPDIR:-/tmp})
#
# A sample is taken every millisecond of CPU time; each table lists its
# top 25 rows.
#
# COMMAND must be the program itself, not a script that builds it: the
# library unsets LD_PRELOAD at start, so a child process is not sampled.
# Names need line tables; for machmark's `unix_build`, for example:
#
#   CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=/tmp/prof \
#       cargo build --release --offline --manifest-path benchmark/Cargo.toml
#   scripts/cpu_profile.sh --under 'MachUnix as machunix::UnixIo>::read' -- \
#       /tmp/prof/release/machmark run --out-dir /tmp/prof/out \
#       --workload unix_build --seed 1 --seconds 8 --trace 0
#
# x86_64 Linux only (the interrupted pc is read from REG_RIP). Shares are
# of samples, so of CPU time on every core the process used.
set -euo pipefail

top=25
under=
out=
while [ $# -gt 0 ]; do
    case "$1" in
        --under) under=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --) shift; break ;;
        *) echo "cpu_profile.sh: unknown option $1" >&2; exit 2 ;;
    esac
done
if [ $# -eq 0 ]; then
    echo "usage: cpu_profile.sh [--under FRAME] [--out DIR] -- COMMAND [ARG...]" >&2
    exit 2
fi
if [ -z "$out" ]; then
    out=$(mktemp -d "${TMPDIR:-/tmp}/cpu_profile.XXXXXX")
fi
mkdir -p "$out"

cat > "$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 64

static int samples = -1;
static char objects_path[4096];

static char *hex(char *p, unsigned long v) {
    char digits[16];
    int n = 0;
    do {
        digits[n++] = "0123456789abcdef"[v & 15];
        v >>= 4;
    } while (v);
    while (n) *p++ = digits[--n];
    return p;
}

/* One line per tick: the interrupted pc, then the return addresses of
   its callers. Only async-signal-safe calls, and one write(2) a line, so
   lines from two threads never interleave in the O_APPEND file. */
static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    int saved = errno;
    void *frames[MAX_FRAMES];
    int n = backtrace(frames, MAX_FRAMES);
    unsigned long pc = (unsigned long)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    /* The frames up to the pc are the handler's and the signal
       trampoline's; without the pc among them, keep the pc alone. */
    int first = n;
    for (int i = 0; i < n; i++) {
        if ((unsigned long)frames[i] == pc) {
            first = i + 1;
            break;
        }
    }
    char line[MAX_FRAMES * 17 + 2], *p = hex(line, pc);
    for (int i = first; i < n; i++) {
        *p++ = ' ';
        p = hex(p, (unsigned long)frames[i]);
    }
    *p++ = '\n';
    ssize_t unused = write(samples, line, p - line);
    (void)unused;
    errno = saved;
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("CPU_PROFILE_OUT");
    if (!path) return;
    snprintf(objects_path, sizeof objects_path, "%s.objects", path);
    samples = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    unsetenv("LD_PRELOAD");
    unsetenv("CPU_PROFILE_OUT");
    if (samples < 0) return;
    /* The first backtrace() loads the unwinder: not inside a handler. */
    void *warm[1];
    backtrace(warm, 1);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    /* One tick per millisecond of CPU time. */
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

/* Every executable segment loaded, as "start end bias file": an address
   in [start, end) is the address (address - bias) in that file. */
static int segment(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    char self[4096];
    const char *file = info->dlpi_name;
    if (!file || !*file) {
        ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
        if (n <= 0) return 0;
        self[n] = 0;
        file = self;
    }
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) continue;
        unsigned long start = info->dlpi_addr + ph->p_vaddr;
        fprintf((FILE *)out, "%lx %lx %lx %s\n", start, start + ph->p_memsz,
                (unsigned long)info->dlpi_addr, file);
    }
    return 0;
}

__attribute__((destructor)) static void stop(void) {
    if (samples < 0) return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(objects_path, "w");
    if (!out) return;
    dl_iterate_phdr(segment, out);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$out/sampler.so" "$out/sampler.c"

status=0
CPU_PROFILE_OUT="$out/samples" LD_PRELOAD="$out/sampler.so" "$@" \
    > "$out/stdout" 2> "$out/stderr" || status=$?
if [ ! -s "$out/samples" ] || [ ! -s "$out/samples.objects" ]; then
    echo "cpu_profile.sh: no samples (exit status $status; see $out/stderr)" >&2
    exit 1
fi

# Every distinct frame: a pc as it is, a return address minus one (the
# call instruction it follows), with the file it falls in and its
# address there (the address less the file's load bias).
awk '{ print "p" $1; for (i = 2; i <= NF; i++) print "r" $i }' "$out/samples" | sort -u > "$out/frames"
starts=() ends=() biases=() files=()
while read -r start end bias file; do
    starts+=($((0x$start))) ends+=($((0x$end))) biases+=($((0x$bias))) files+=("$file")
done < "$out/samples.objects"
while read -r key; do
    addr=$((0x${key#?}))
    [ "${key%"${key#?}"}" = r ] && addr=$((addr - 1))
    file="[unknown]" rel=$addr
    for i in "${!starts[@]}"; do
        if [ "$addr" -ge "${starts[$i]}" ] && [ "$addr" -lt "${ends[$i]}" ]; then
            file=${files[$i]} rel=$((addr - biases[i]))
            break
        fi
    done
    printf '%s\t%s\t0x%x\n' "$key" "$file" "$rel"
done < "$out/frames" > "$out/located"

# Each frame's names, innermost inlined function first, ';'-separated. A
# frame in a file without line tables (libc) is named after the file.
: > "$out/names"
cut -f2 "$out/located" | sort -u | while read -r file; do
    awk -F'\t' -v f="$file" '$2 == f { print $1 "\t" $3 }' "$out/located" > "$out/batch"
    if [ ! -f "$file" ]; then
        # Outside every file (JIT code, a trampoline) or in the vDSO.
        awk -F'\t' -v f="$file" '{ print $1 "\t" f }' "$out/batch" >> "$out/names"
        continue
    fi
    cut -f2 "$out/batch" | { addr2line -e "$file" -a -f -i -C 2>/dev/null || true; } |
        awk -v base="${file##*/}" -v keys="$out/batch" '
            BEGIN { while ((getline line < keys) > 0) { split(line, kv, "\t"); key[++n] = kv[1] } }
            function flush() { if (i) print key[i] "\t" names }
            /^0x/ { flush(); i++; names = ""; want_name = 1; next }
            want_name { name = $0; want_name = 0; next }
            {
                # No line table: the name is only the nearest exported symbol.
                if ($0 ~ /^\?\?/) name = "(" base ", no line table)"
                names = names (names == "" ? "" : ";") name
                want_name = 1
            }
            END { flush() }' >> "$out/names"
done

# The report.
awk -v top="$top" -v under="$under" -v names="$out/names" '
    BEGIN { FS = " "; while ((getline line < names) > 0) { split(line, kv, "\t"); chain[kv[1]] = kv[2] } }
    {
        total++
        n = 0
        for (f = 1; f <= NF; f++) {
            c = chain[(f == 1 ? "p" : "r") $f]
            k = split(c == "" ? "[unknown]" : c, parts, ";")
            for (j = 1; j <= k; j++) stack[++n] = parts[j]
        }
        self[stack[1]]++
        delete seen
        for (j = 1; j <= n; j++) if (!(stack[j] in seen)) { seen[stack[j]] = 1; incl[stack[j]]++ }
        if (under == "") next
        # The outermost frame that matches, and what it called.
        at = 0
        for (j = n; j >= 1; j--) if (index(stack[j], under)) { at = j; break }
        if (!at) next
        hits++
        delete seen
        for (j = 1; j < at; j++) if (!(stack[j] in seen)) { seen[stack[j]] = 1; callee[stack[j]]++ }
        if (at == 1) callee["(self)"]++
    }
    function table(title, counts, denom,    name, m, i, j, t, order) {
        m = 0
        for (name in counts) order[++m] = name
        for (i = 2; i <= m; i++) for (j = i; j > 1 && counts[order[j]] > counts[order[j - 1]]; j--) {
            t = order[j]; order[j] = order[j - 1]; order[j - 1] = t
        }
        printf "\n%s\n", title
        for (i = 1; i <= m && i <= top; i++) printf "%6.1f %%  %7d  %s\n", 100 * counts[order[i]] / denom, counts[order[i]], order[i]
    }
    END {
        printf "%d samples\n", total
        table("self (the sample stopped here), share of all samples", self, total)
        table("inclusive (anywhere on the stack), share of all samples", incl, total)
        if (under != "") {
            printf "\nunder \"%s\": %d samples, %.1f %% of all\n", under, hits, hits ? 100 * hits / total : 0
            if (hits) table("its callees (inclusive), share of the samples under it", callee, hits)
        }
    }' "$out/samples" | tee "$out/report"
echo "(samples, file list and report in $out; the command exited $status)"
