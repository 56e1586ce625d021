/* Sanitizer driver for src/repro/ebcot/mq.c.
 *
 * Build with the coder under the address and undefined-behaviour
 * sanitizers and feed it a corpus file (tests/test_mq_sanitize.py
 * writes one from the golden tier-1 corpus):
 *
 *   gcc -fsanitize=address,undefined -fno-sanitize-recover=all -g \
 *       tests/native/mq_driver.c src/repro/ebcot/mq.c -o mq_driver
 *   ./mq_driver corpus.bin
 *
 * The corpus is a sequence of little-endian records, one per code-block:
 *
 *   u32 n_calls, then per call: u32 kind, u32 n, i32 words[n]
 *     kind 0: mq_decode_pass words (a significance or cleanup pass)
 *     kind 1: mq_decode contexts (a refinement pass)
 *     kind 2: mq_encode symbols
 *   u32 n_segments, then per segment: u32 len, u8 bytes[len]
 *
 * The encoder calls, replayed into a buffer of the smallest capacity
 * mq_encode accepts, must reproduce the first segment.  The decoder
 * calls are replayed over every segment (truncations and mutations of
 * that one), each copied into an allocation of its exact size, so any
 * read outside a segment, a state buffer or a pass array is reported.
 * Exits 0 and prints the totals on success, 1 on a mismatch or a
 * malformed corpus; a sanitizer finding aborts.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t mq_encode(int64_t *st, uint8_t *buf, const int32_t *sym, int64_t n);
int64_t mq_flush(int64_t *st, uint8_t *buf);
void mq_decoder_init(int64_t *st, const uint8_t *data, int64_t len);
int64_t mq_decode(int64_t *st, const uint8_t *data, int32_t *cx, int64_t n);
int64_t mq_decode_pass(int64_t *st, const uint8_t *data, int32_t *p, int64_t n,
                       int64_t ctx_run, int64_t ctx_uniform);

enum { N_CONTEXTS = 19, CTX_RUN = 17, CTX_UNIFORM = 18, HDR = 6 };
enum { E_LEN = 3, E_CAP = 4, E_NCTX = 5 };

typedef struct {
    uint32_t kind, n;
    const uint8_t *words; /* n little-endian int32, possibly unaligned */
} call;

static const uint8_t *cur, *end;

static int take(size_t n, const uint8_t **out)
{
    if ((size_t)(end - cur) < n)
        return 0;
    *out = cur;
    cur += n;
    return 1;
}

static int take_u32(uint32_t *v)
{
    const uint8_t *p;
    if (!take(4, &p))
        return 0;
    *v = (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
    return 1;
}

static int32_t *words_copy(const call *c)
{
    int32_t *w = malloc(c->n ? c->n * sizeof(int32_t) : 1);
    if (!w) {
        perror("malloc");
        exit(1);
    }
    memcpy(w, c->words, c->n * sizeof(int32_t));
    return w;
}

static int64_t *new_state(int64_t nctx)
{
    int64_t *st = calloc(HDR + 2 * nctx, sizeof(int64_t));
    if (!st) {
        perror("calloc");
        exit(1);
    }
    st[E_NCTX] = nctx;
    return st;
}

/* Replay the encoder calls; 1 when they reproduce seg[0 .. len-1]. */
static int check_encoder(const call *calls, uint32_t n_calls, const uint8_t *seg, uint32_t len)
{
    int64_t need = 1 + 3; /* the leading byte, then FLUSH */
    for (uint32_t i = 0; i < n_calls; i++)
        if (calls[i].kind == 2)
            need += 3 * (int64_t)calls[i].n;
    uint8_t *buf = malloc(need);
    int64_t *st = new_state(N_CONTEXTS);
    st[0] = 0x8000;
    st[2] = 12;
    st[E_LEN] = 1;
    st[E_CAP] = need;
    buf[0] = 0;
    int ok = 1;
    for (uint32_t i = 0; i < n_calls && ok; i++) {
        if (calls[i].kind != 2)
            continue;
        int32_t *sym = words_copy(&calls[i]);
        /* Capacity is checked before anything is coded. */
        int64_t cap = st[E_CAP];
        st[E_CAP] = st[E_LEN] + 3 * (int64_t)calls[i].n - 1;
        ok = calls[i].n == 0 || mq_encode(st, buf, sym, calls[i].n) == -2;
        st[E_CAP] = cap;
        ok = ok && mq_encode(st, buf, sym, calls[i].n) == 0;
        free(sym);
    }
    int64_t n = ok ? mq_flush(st, buf) : -1;
    const uint8_t *out = buf;
    if (n > 0 && buf[0] == 0) {
        out++;
        n--;
    }
    ok = ok && n == (int64_t)len && memcmp(out, seg, len) == 0;
    free(st);
    free(buf);
    return ok;
}

/* Replay the decoder calls over one segment; the number of decisions
 * decoded, or -1 when a call rejects its input. */
static int64_t decode_segment(const call *calls, uint32_t n_calls, const uint8_t *bytes, uint32_t len)
{
    uint8_t *seg = malloc(len ? len : 1);
    memcpy(seg, bytes, len);
    int64_t *st = new_state(N_CONTEXTS);
    mq_decoder_init(st, seg, len);
    int64_t total = 0;
    for (uint32_t i = 0; i < n_calls && total >= 0; i++) {
        if (calls[i].kind == 2)
            continue;
        int32_t *w = words_copy(&calls[i]);
        int64_t r = calls[i].kind == 0 ? mq_decode_pass(st, seg, w, calls[i].n, CTX_RUN, CTX_UNIFORM)
                                       : mq_decode(st, seg, w, calls[i].n);
        total = r < 0 ? -1 : total + r;
        free(w);
    }
    free(st);
    free(seg);
    return total;
}

/* Malformed input is rejected without touching the state. */
static int check_rejects(void)
{
    int64_t *st = new_state(N_CONTEXTS);
    static const uint8_t seg[] = {0x12, 0xFF, 0x7F};
    mq_decoder_init(st, seg, sizeof seg);
    int64_t before[HDR + 2 * N_CONTEXTS];
    memcpy(before, st, sizeof before);
    int32_t run_at_end[3] = {0x1000, 0, 0}, bad_ctx[1] = {0x800 | 25}, out_bit[1] = {0x2000};
    int32_t cx[2] = {0, N_CONTEXTS};
    int ok = mq_decode_pass(st, seg, run_at_end, 3, CTX_RUN, CTX_UNIFORM) == -1
             && mq_decode_pass(st, seg, bad_ctx, 1, CTX_RUN, CTX_UNIFORM) == -1
             && mq_decode_pass(st, seg, out_bit, 1, CTX_RUN, CTX_UNIFORM) == -1
             && mq_decode_pass(st, seg, out_bit, 0, N_CONTEXTS, CTX_UNIFORM) == -1
             && mq_decode(st, seg, cx, 2) == -1
             && memcmp(before, st, sizeof before) == 0;
    free(st);
    return ok;
}

int main(int argc, char **argv)
{
    if (argc != 2) {
        fprintf(stderr, "usage: %s CORPUS\n", argv[0]);
        return 1;
    }
    FILE *f = fopen(argv[1], "rb");
    if (!f) {
        perror(argv[1]);
        return 1;
    }
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    fseek(f, 0, SEEK_SET);
    uint8_t *corpus = malloc(size ? size : 1);
    if (fread(corpus, 1, size, f) != (size_t)size) {
        fprintf(stderr, "short read\n");
        return 1;
    }
    fclose(f);
    cur = corpus;
    end = corpus + size;
    if (!check_rejects()) {
        fprintf(stderr, "malformed input was not rejected\n");
        return 1;
    }
    long blocks = 0, segments = 0, decisions = 0;
    while (cur < end) {
        uint32_t n_calls, n_segs;
        if (!take_u32(&n_calls) || n_calls > (size_t)(end - cur) / 8)
            goto malformed;
        call *calls = malloc((n_calls ? n_calls : 1) * sizeof(call));
        for (uint32_t i = 0; i < n_calls; i++)
            if (!take_u32(&calls[i].kind) || calls[i].kind > 2 || !take_u32(&calls[i].n)
                || !take((size_t)calls[i].n * 4, &calls[i].words))
                goto malformed;
        if (!take_u32(&n_segs))
            goto malformed;
        for (uint32_t s = 0; s < n_segs; s++) {
            uint32_t len;
            const uint8_t *bytes;
            if (!take_u32(&len) || !take(len, &bytes))
                goto malformed;
            if (s == 0 && !check_encoder(calls, n_calls, bytes, len)) {
                fprintf(stderr, "block %ld: the encoder calls do not reproduce the segment\n", blocks);
                return 1;
            }
            int64_t r = decode_segment(calls, n_calls, bytes, len);
            if (r < 0) {
                fprintf(stderr, "block %ld segment %u: a decoder call rejected its input\n", blocks, s);
                return 1;
            }
            decisions += r;
            segments++;
        }
        free(calls);
        blocks++;
    }
    free(corpus);
    printf("blocks %ld segments %ld decisions %ld\n", blocks, segments, decisions);
    return 0;
malformed:
    fprintf(stderr, "malformed corpus at offset %ld\n", (long)(cur - corpus));
    return 1;
}
