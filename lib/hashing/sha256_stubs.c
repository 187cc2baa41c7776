/* SHA-256 compression function, FIPS 180-4 section 6.2.2: hashes whole
   64-byte blocks straight from an OCaml string into the eight chaining
   words. The message schedule lives on the C stack.

   Contract with sha256.ml, which is the only caller:
   - the blocks [off, off + 64 * nblocks) lie within the string (the OCaml
     side checks before every call);
   - [nblocks] is small (sha256.ml caps it), because the native entry point
     is noalloc and so holds no poll point for its whole run;
   - the state is an OCaml int array of 8 words, each below 2^32; the stub
     reads it and writes immediates back, and touches the OCaml heap
     nowhere else. */

#include <caml/mlvalues.h>
#include <stdint.h>

static const uint32_t k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

value zkqac_sha256_blocks(value state, value s, intnat off, intnat nblocks)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + off;
  uint32_t h[8], w[64];
  for (int i = 0; i < 8; i++) h[i] = (uint32_t)Long_val(Field(state, i));
  for (; nblocks > 0; nblocks--, p += 64) {
    for (int t = 0; t < 16; t++)
      w[t] = (uint32_t)p[4 * t] << 24 | (uint32_t)p[4 * t + 1] << 16
             | (uint32_t)p[4 * t + 2] << 8 | (uint32_t)p[4 * t + 3];
    for (int t = 16; t < 64; t++) {
      uint32_t s0 = ROTR(w[t - 15], 7) ^ ROTR(w[t - 15], 18) ^ (w[t - 15] >> 3);
      uint32_t s1 = ROTR(w[t - 2], 17) ^ ROTR(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int t = 0; t < 64; t++) {
      uint32_t t1 = hh + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                    + ((e & f) ^ (~e & g)) + k[t] + w[t];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                    + ((a & b) ^ (a & c) ^ (b & c));
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
  for (int i = 0; i < 8; i++) Field(state, i) = Val_long(h[i]);
  return Val_unit;
}

value zkqac_sha256_blocks_bytecode(value state, value s, value off, value nblocks)
{
  return zkqac_sha256_blocks(state, s, Long_val(off), Long_val(nblocks));
}
