(* The global collection switches, in a leaf module so that both the
   aggregate-counter layer (Telemetry) and the tracing layer (Trace) can
   consult them without depending on each other.

   [telemetry_on] gates the op counters. Either switch turns on the
   per-stage table ({!Stage}: latency histograms, allocation words, GC
   pauses) that every span close feeds, as does an installed trace close
   hook; [tracing_on] alone also gates the per-domain span buffers. Both
   default to off: with no hook, a span then pays three atomic loads and a
   branch, plus the flight recorder's clock reads and ring store while that
   is enabled. *)

let telemetry_on = Atomic.make false
let tracing_on = Atomic.make false
