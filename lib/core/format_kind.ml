open Raw_formats

type t =
  | Csv of { sep : char }
  | Jsonl
  | Jsonl_array of { array_path : string }
  | Fwb
  | Ibx
  | Hep_events
  | Hep_particles of Hep.coll

type capability = Sequential_scan | Index_scan

let capabilities = function
  | Csv _ | Jsonl -> [ Sequential_scan ]
  | Jsonl_array _ -> [ Sequential_scan; Index_scan ]
  | Fwb -> [ Sequential_scan ]
  | Ibx -> [ Sequential_scan; Index_scan ]
  | Hep_events | Hep_particles _ -> [ Sequential_scan; Index_scan ]

let textual = function
  | Csv _ | Jsonl | Jsonl_array _ -> true
  | Fwb | Ibx | Hep_events | Hep_particles _ -> false

let to_string = function
  | Csv { sep } -> Printf.sprintf "csv(sep=%C)" sep
  | Jsonl -> "jsonl"
  | Jsonl_array { array_path } -> Printf.sprintf "jsonl[%s]" array_path
  | Fwb -> "fwb"
  | Ibx -> "ibx"
  | Hep_events -> "hep:events"
  | Hep_particles c -> "hep:" ^ Hep.coll_to_string c

let pp ppf t = Format.pp_print_string ppf (to_string t)

let hep_event_schema =
  Raw_vector.Schema.of_pairs
    [ ("event_id", Raw_vector.Dtype.Int); ("run_number", Raw_vector.Dtype.Int) ]

let hep_particle_schema =
  Raw_vector.Schema.of_pairs
    [
      ("event_id", Raw_vector.Dtype.Int);
      ("pt", Raw_vector.Dtype.Float);
      ("eta", Raw_vector.Dtype.Float);
      ("phi", Raw_vector.Dtype.Float);
    ]
