/* The MQ binary arithmetic coder of JPEG2000 (T.800 Annex C).
 *
 * The per-decision loops behind repro.ebcot.mq: the encoder's coding
 * loop and FLUSH, and the decoder's loops over a context list and over
 * a whole significance-propagation or cleanup pass.  Python keeps each
 * coder's registers and context tables in one int64 buffer (layouts
 * below) and passes its address with every call; the functions load the
 * registers into locals and store them back before returning.
 *
 * Every function checks its whole input before it changes any state
 * and returns -1 for a bad one, so a rejected call leaves the coder as
 * it was.  The decoder reads only data[0 .. len-1]; a read past the end
 * yields 0xFF, which feeds 1-bits as the standard prescribes for
 * truncated segments.
 *
 * Built as a shared library by repro.native; tests/native/mq_driver.c
 * links it under the address and undefined-behaviour sanitizers.
 */

#include <stdint.h>

/* (Qe, NMPS, NLPS, SWITCH) -- T.800 Table C.2. */
static const uint32_t QE[47] = {
    0x5601, 0x3401, 0x1801, 0x0AC1, 0x0521, 0x0221, 0x5601, 0x5401,
    0x4801, 0x3801, 0x3001, 0x2401, 0x1C01, 0x1601, 0x5601, 0x5401,
    0x5101, 0x4801, 0x3801, 0x3401, 0x3001, 0x2801, 0x2401, 0x2201,
    0x1C01, 0x1801, 0x1601, 0x1401, 0x1201, 0x1101, 0x0AC1, 0x09C1,
    0x08A1, 0x0521, 0x0441, 0x02A1, 0x0221, 0x0141, 0x0111, 0x0085,
    0x0049, 0x0025, 0x0015, 0x0009, 0x0005, 0x0001, 0x5601,
};
static const int64_t NMPS[47] = {
    1, 2, 3, 4, 5, 38, 7, 8, 9, 10, 11, 12, 13, 29, 15, 16,
    17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
    33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 45, 46,
};
static const int64_t NLPS[47] = {
    1, 6, 9, 12, 29, 33, 6, 14, 14, 14, 17, 18, 20, 21, 14, 14,
    15, 16, 17, 18, 19, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
    30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 46,
};
static const int64_t SWITCH[47] = {
    1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
};

/* Encoder state: registers, segment length and capacity, then
 * index[n_ctx] and mps[n_ctx].  buf[0] is the fabricated leading byte. */
enum { E_A, E_C, E_CT, E_LEN, E_CAP, E_NCTX, E_HDR };
/* Decoder state: registers, read position, segment length, then
 * index[n_ctx] and mps[n_ctx]. */
enum { D_A, D_C, D_CT, D_BP, D_LEN, D_NCTX, D_HDR };

/* Pass-array fields, one int32 per sample in stripe scan order. */
#define P_ZC_MASK 0x1F          /* zero-coding context */
#define P_SC_SHIFT 5            /* sign context, 5 bits */
#define P_XOR 0x400             /* sign XOR predicate */
#define P_VISIT 0x800           /* zero-code this sample */
#define P_RUN 0x1000            /* run-mode column head (rows i..i+3) */
#define P_IN_MASK 0x1FFF
#define P_HIT 0x2000            /* out: became significant */
#define P_NEG 0x4000            /* out: its sign is negative */

/* -- encoder ------------------------------------------------------------ */

/* BYTEOUT: move the top byte of C into buf, resolving a carry into the
 * previous byte and stuffing a zero bit after 0xFF. */
static inline uint64_t byteout(uint8_t *buf, int64_t *len, uint64_t c, int64_t *ct)
{
    if (buf[*len - 1] == 0xFF) {
        buf[(*len)++] = (uint8_t)((c >> 20) & 0xFF);
        *ct = 7;
        return c & 0xFFFFF;
    }
    if (c >= 0x8000000) {
        buf[*len - 1] += 1;
        if (buf[*len - 1] == 0xFF) {
            c &= 0x7FFFFFF;
            buf[(*len)++] = (uint8_t)((c >> 20) & 0xFF);
            *ct = 7;
            return c & 0xFFFFF;
        }
    }
    buf[(*len)++] = (uint8_t)((c >> 19) & 0xFF);
    *ct = 8;
    return c & 0x7FFFF;
}

/* Code sym[i] = 2 * context + decision, in order.  Returns 0, -1 for a
 * symbol outside 0 .. 2 * n_ctx - 1, or -2 when buf cannot take the
 * worst case of n decisions (at most three bytes each). */
int64_t mq_encode(int64_t *st, uint8_t *buf, const int32_t *sym, int64_t n)
{
    const int64_t nctx = st[E_NCTX];
    int64_t i;
    for (i = 0; i < n; i++)
        if (sym[i] < 0 || (sym[i] >> 1) >= nctx)
            return -1;
    if (n > (st[E_CAP] - st[E_LEN]) / 3)
        return -2;
    int64_t *index = st + E_HDR, *mps = index + nctx;
    uint64_t a = (uint64_t)st[E_A], c = (uint64_t)st[E_C];
    int64_t ct = st[E_CT], len = st[E_LEN];
    for (i = 0; i < n; i++) {
        const int64_t cx = sym[i] >> 1, d = sym[i] & 1;
        const int64_t idx = index[cx];
        const uint64_t qe = QE[idx];
        a -= qe;
        if (d == mps[cx]) {
            if (a & 0x8000) {
                c += qe;
                continue;
            }
            if (a < qe)
                a = qe;
            else
                c += qe;
            index[cx] = NMPS[idx];
        } else {
            if (a < qe)
                c += qe;
            else
                a = qe;
            if (SWITCH[idx])
                mps[cx] ^= 1;
            index[cx] = NLPS[idx];
        }
        /* RENORME: here 0 < A < 0x8000. */
        int64_t shift = __builtin_clz((unsigned)a) - 16;
        a <<= shift;
        while (shift >= ct) {
            c = (c << ct) & 0xFFFFFFF;
            shift -= ct;
            c = byteout(buf, &len, c, &ct);
        }
        c = (c << shift) & 0xFFFFFFF;
        ct -= shift;
    }
    st[E_A] = (int64_t)a;
    st[E_C] = (int64_t)c;
    st[E_CT] = ct;
    st[E_LEN] = len;
    return 0;
}

/* FLUSH: SETBITS, then three byteouts (the spec's two plus one so the
 * last decision never depends on synthesized padding), dropping a
 * trailing 0xFF.  Returns the segment length, or -2 without room. */
int64_t mq_flush(int64_t *st, uint8_t *buf)
{
    if (st[E_CAP] - st[E_LEN] < 3)
        return -2;
    uint64_t c = (uint64_t)st[E_C] + (uint64_t)st[E_A] - 1;
    int64_t ct = st[E_CT], len = st[E_LEN];
    c &= ~(uint64_t)0x7FFF;
    for (int k = 0; k < 3; k++)
        c = byteout(buf, &len, (c << ct) & 0xFFFFFFF, &ct);
    if (buf[len - 1] == 0xFF)
        len--;
    st[E_C] = (int64_t)c;
    st[E_CT] = ct;
    st[E_LEN] = len;
    return len;
}

/* -- decoder ------------------------------------------------------------ */

typedef struct {
    uint64_t a, c;
    int64_t ct, bp, len;
    const uint8_t *data;
    int64_t *index, *mps;
} decoder;

static inline decoder load(int64_t *st, const uint8_t *data)
{
    decoder d = {(uint64_t)st[D_A], (uint64_t)st[D_C], st[D_CT], st[D_BP], st[D_LEN],
                 data, st + D_HDR, st + D_HDR + st[D_NCTX]};
    return d;
}

static inline void store(int64_t *st, const decoder *d)
{
    st[D_A] = (int64_t)d->a;
    st[D_C] = (int64_t)d->c;
    st[D_CT] = d->ct;
    st[D_BP] = d->bp;
}

static inline uint64_t byte_at(const decoder *d, int64_t i)
{
    return i < d->len ? d->data[i] : 0xFF;
}

/* BYTEIN.  The read position never passes len: past the end every
 * byte reads 0xFF, whose successor (0xFF > 0x8F) does not advance it. */
static inline void bytein(decoder *d)
{
    if (byte_at(d, d->bp) == 0xFF) {
        if (byte_at(d, d->bp + 1) > 0x8F) {
            d->c += 0xFF00;
            d->ct = 8;
        } else {
            d->bp++;
            d->c += byte_at(d, d->bp) << 9;
            d->ct = 7;
        }
    } else {
        d->bp++;
        d->c += byte_at(d, d->bp) << 8;
        d->ct = 8;
    }
}

static inline void renormd(decoder *d)
{
    do {
        if (d->ct == 0)
            bytein(d);
        d->a = (d->a << 1) & 0xFFFF;
        d->c = (d->c << 1) & 0xFFFFFFFF;
        d->ct--;
    } while (!(d->a & 0x8000));
}

static inline int64_t decode1(decoder *d, int64_t cx)
{
    const int64_t idx = d->index[cx];
    const uint64_t qe = QE[idx];
    int64_t bit;
    d->a -= qe;
    if (((d->c >> 16) & 0xFFFF) < qe) {
        /* LPS path (conditional exchange). */
        if (d->a < qe) {
            bit = d->mps[cx];
            d->index[cx] = NMPS[idx];
        } else {
            bit = 1 - d->mps[cx];
            if (SWITCH[idx])
                d->mps[cx] ^= 1;
            d->index[cx] = NLPS[idx];
        }
        d->a = qe;
        renormd(d);
        return bit;
    }
    d->c -= qe << 16;
    if (d->a & 0x8000)
        return d->mps[cx];
    if (d->a < qe) {
        bit = 1 - d->mps[cx];
        if (SWITCH[idx])
            d->mps[cx] ^= 1;
        d->index[cx] = NLPS[idx];
    } else {
        bit = d->mps[cx];
        d->index[cx] = NMPS[idx];
    }
    renormd(d);
    return bit;
}

/* INITDEC over data[0 .. len-1]; the context tables are set by the
 * caller. */
void mq_decoder_init(int64_t *st, const uint8_t *data, int64_t len)
{
    st[D_LEN] = len < 0 ? 0 : len;
    st[D_BP] = 0;
    st[D_A] = 0;
    decoder d = load(st, data);
    d.c = byte_at(&d, 0) << 16;
    bytein(&d);
    d.c = (d.c << 7) & 0xFFFFFFFF;
    d.ct -= 7;
    d.a = 0x8000;
    store(st, &d);
}

/* Decode one decision per context, in place: cx[i] becomes the decision
 * coded in context cx[i].  Returns n, or -1 for a context out of range. */
int64_t mq_decode(int64_t *st, const uint8_t *data, int32_t *cx, int64_t n)
{
    const int64_t nctx = st[D_NCTX];
    int64_t i;
    for (i = 0; i < n; i++)
        if (cx[i] < 0 || cx[i] >= nctx)
            return -1;
    decoder d = load(st, data);
    for (i = 0; i < n; i++)
        cx[i] = (int32_t)decode1(&d, cx[i]);
    store(st, &d);
    return n;
}

/* Decode one significance-propagation or cleanup pass over the scan-
 * ordered pass array p (fields P_* above), setting P_HIT and P_NEG on
 * each sample that becomes significant.  A sample with P_VISIT codes
 * its zero-coding decision, then its sign on a hit.  A P_RUN column
 * head codes RUN; on a hit, the row k of the first significant sample
 * as two UNIFORM bits and that sample's sign, then rows k+1..3 as
 * visited samples.  Returns the number of decisions decoded, or -1 for
 * a context out of range, an input with output bits set, or a run
 * column that does not fit in p. */
int64_t mq_decode_pass(int64_t *st, const uint8_t *data, int32_t *p, int64_t n,
                       int64_t ctx_run, int64_t ctx_uniform)
{
    const int64_t nctx = st[D_NCTX];
    int64_t i;
    if (ctx_run < 0 || ctx_run >= nctx || ctx_uniform < 0 || ctx_uniform >= nctx)
        return -1;
    for (i = 0; i < n; i++) {
        const int32_t v = p[i];
        if ((v & ~P_IN_MASK) || (v & P_ZC_MASK) >= nctx || (v >> P_SC_SHIFT & 0x1F) >= nctx)
            return -1;
        if ((v & P_RUN) && i > n - 4)
            return -1;
    }
    decoder d = load(st, data);
    int64_t count = 0;
    for (i = 0; i < n; i++) {
        const int32_t v = p[i];
        int64_t t, end;
        if (v & P_RUN) {
            count++;
            if (!decode1(&d, ctx_run))
                continue;
            t = decode1(&d, ctx_uniform) << 1;
            t = i + (t | decode1(&d, ctx_uniform));
            count += 3;
            end = i + 4;
        } else if (v & P_VISIT) {
            count++;
            if (!decode1(&d, v & P_ZC_MASK))
                continue;
            t = i;
            count++;
            end = i + 1;
        } else {
            continue;
        }
        /* t is a hit: code its sign, then the rest of a run column. */
        for (;;) {
            const int32_t w = p[t];
            const int64_t neg = decode1(&d, w >> P_SC_SHIFT & 0x1F) ^ ((w & P_XOR) != 0);
            p[t] = w | P_HIT | (neg ? P_NEG : 0);
            for (t++; t < end; t++) {
                count++;
                if (decode1(&d, p[t] & P_ZC_MASK))
                    break;
            }
            if (t >= end)
                break;
            count++;
        }
    }
    store(st, &d);
    return count;
}
