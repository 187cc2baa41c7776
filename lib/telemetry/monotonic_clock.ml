external now_ns : unit -> (int64[@unboxed])
  = "zkqac_monotonic_now_ns_bytecode" "zkqac_monotonic_now_ns_native"
[@@noalloc]

let elapsed_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
