type 'a t = { cases : int; passed : 'a list; failures : (int * string) list }

let run ~seed ~count check =
  let passed = ref [] and failures = ref [] in
  for s = seed to seed + count - 1 do
    match check s with
    | Ok v -> passed := v :: !passed
    | Error msg -> failures := (s, msg) :: !failures
  done;
  { cases = count; passed = List.rev !passed; failures = List.rev !failures }

let pp header ppf t =
  Format.fprintf ppf "@[<v>%a@ %a@]" header t
    (Format.pp_print_list (fun ppf (seed, msg) -> Format.fprintf ppf "FAIL seed=%d: %s" seed msg))
    t.failures

let frac rng lo hi = lo +. (Repro_workload.Rng.float rng *. (hi -. lo))
