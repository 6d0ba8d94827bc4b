#!/usr/bin/env bash
# Proof that the hot loops autovectorize: build shmt-kernels (and with it
# shmt-tensor) with --emit asm and require packed float instructions in
# the output.
#
# The interior loops are written in the slice idioms (windows(3) zips,
# iter_mut().zip saxpy) that LLVM reliably turns into SIMD; this gate
# keeps that property from silently regressing — a refactor that breaks
# vectorization (say, reintroducing per-element bounds checks) collapses
# the packed-op count and fails CI. Packed sqrtps additionally pins the
# Sobel/SRAD magnitude loops specifically, since sqrt only appears there.
#
# The int8 NPU emulation (shmt-tensor's quant and range loops) is gated on
# what made it fast while staying bit-identical, function by function: the
# body of each loop the request path runs is cut out of the assembly by its
# symbol and must hold the packed form of its own arithmetic, which stays
# f32 — a packed divide per snap (x * (1/scale) is not (x / scale) bit for
# bit), packed min/max for the range scan and the clamp, a packed compare
# for the tie select, a packed convert for the i8 codes. Packed ops
# elsewhere in the crate cannot stand in for a loop that fell back to
# scalar code. And no loop calls libm's roundf any more, in either crate.
#
# The dense transforms of shmt-kernels are gated the same way: the DCT8x8
# block transform (`dct8x8::transform_block`, accumulating a block row's
# eight output columns as lanes) must hold packed mulps and addps, and the
# FFT butterflies (`fft::lane_stages`, one row of a band per lane) packed
# mulps, addps and subps. Both are `#[inline(never)]` so their
# bodies keep a symbol to cut. So are the element-wise loops the DAG's
# unary and fused stages run (`primitives::relu_into`, `sqrt_into` and
# their in-place twins, one loop per `UnaryOp`): ReLU must hold packed
# maxps, Sqrt packed sqrtps. The gate checks itself: asking for an op
# those bodies lack must fail.
#
# Uses its own target dir: the RUSTFLAGS change would otherwise
# invalidate the main build cache for every later cargo invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

case "$(uname -m)" in
x86_64) ;;
*)
    echo "SIMD asm check skipped (non-x86_64 host: $(uname -m))"
    exit 0
    ;;
esac

RUSTFLAGS="--emit asm" cargo build --release -q -p shmt-kernels \
    --target-dir target/simd-check

count() { grep -cE "$1" "$2" || true; }

asm=$(ls -t target/simd-check/release/deps/shmt_kernels-*.s | head -1)
[ -s "$asm" ] || { echo "no assembly emitted for shmt-kernels"; exit 1; }

packed=$(count '\b(mulps|addps|subps|vmulps|vaddps|vsubps|vfmadd[0-9]*ps)\b' "$asm")
packed_sqrt=$(count '\b(sqrtps|vsqrtps)\b' "$asm")

echo "packed float ops: $packed, packed sqrt: $packed_sqrt ($asm)"
if [ "$packed" -lt 50 ]; then
    echo "autovectorization regressed: only $packed packed float ops (want >= 50)"
    exit 1
fi
if [ "$packed_sqrt" -lt 1 ]; then
    echo "autovectorization regressed: no packed sqrt in the stencil magnitude loops"
    exit 1
fi

tasm=$(ls -t target/simd-check/release/deps/shmt_tensor-*.s | head -1)
[ -s "$tasm" ] || { echo "no assembly emitted for shmt-tensor"; exit 1; }

# body <.s file> <mangled symbol prefix>: one function's instructions.
body() {
    awk -v sym="^$2""17h[0-9a-f]+E:\$" '
        $0 ~ sym { on = 1; found = 1; next }
        on && /^\.Lfunc_end/ { on = 0 }
        on
        END { if (!found) exit 3 }' "$1"
}

# require <.s file> <name> <mangled symbol prefix> <instruction regex>...
require() {
    local file=$1 name=$2 path=$3 text op
    shift 3
    text=$(body "$file" "$path") || {
        echo "$name: no such symbol in $file (inlined away or renamed?)"
        exit 1
    }
    for op in "$@"; do
        if ! grep -qE "\\bv?${op}\\b" <<<"$text"; then
            echo "$name fell back to scalar code: no packed $op in its body"
            exit 1
        fi
    done
    echo "  $name: $*"
}

# Mangled-path prefixes of the two crates' modules.
quant=_ZN11shmt_tensor5quant
kern=_ZN12shmt_kernels

echo "quant/range loops, per function ($tasm):"
require "$tasm" RangeScan::scan ${quant}9RangeScan4scan minps maxps
require "$tasm" QuantParams::snap_slice ${quant}11QuantParams10snap_slice divps minps maxps
require "$tasm" QuantParams::snap_in_place ${quant}11QuantParams13snap_in_place divps minps maxps 'cmp[a-z]*ps'
require "$tasm" snap_lanes ${quant}10snap_lanes divps minps maxps 'cmp[a-z]*ps'
require "$tasm" QuantParams::quantize_slice ${quant}11QuantParams14quantize_slice divps minps maxps
require "$tasm" QuantParams::dequantize_slice ${quant}11QuantParams16dequantize_slice cvtdq2ps

echo "dense transform loops, per function ($asm):"
require "$asm" dct8x8::transform_block ${kern}6dct8x815transform_block mulps addps
require "$asm" fft::lane_stages ${kern}3fft11lane_stages mulps addps subps

echo "element-wise loops, per function ($asm):"
prim=${kern}10primitives
require "$asm" primitives::relu_into ${prim}9relu_into maxps
require "$asm" primitives::relu_in_place ${prim}13relu_in_place maxps
require "$asm" primitives::sqrt_into ${prim}9sqrt_into sqrtps
require "$asm" primitives::sqrt_in_place ${prim}13sqrt_in_place sqrtps
# The gate must be able to fail: none of these bodies divides.
for probe in "dct8x8::transform_block ${kern}6dct8x815transform_block" \
    "fft::lane_stages ${kern}3fft11lane_stages" \
    "primitives::relu_into ${prim}9relu_into" \
    "primitives::sqrt_into ${prim}9sqrt_into"; do
    # shellcheck disable=SC2086 # the probe is a name and a path
    if (require "$asm" $probe divps) >/dev/null; then
        echo "gate self-check failed: divps reported in ${probe%% *}"
        exit 1
    fi
done
for f in "$tasm" "$asm"; do
    libm=$(count 'roundf' "$f")
    if [ "$libm" -ne 0 ]; then
        echo "roundf is back: $libm references in $f (want 0)"
        exit 1
    fi
done
echo "SIMD asm check OK"
