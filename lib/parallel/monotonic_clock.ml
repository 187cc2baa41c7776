(* The clock lives in zkqac_telemetry; this alias keeps the old path. *)
include Zkqac_telemetry.Monotonic_clock
