"""End-to-end tracking pipeline: crops, backbone, tracker, data, training."""

from .backbone import BackboneWeights, backbone_forward, init_backbone
from .crop import (CropResult, crop_search, crop_template, image_to_patch,
                   pad_to_multiple, patch_to_image)
from .metrics import TrackingMetrics, evaluate, iou
from .seqio import (Frame, load_sequence, read_netpbm, read_rect_file,
                    save_sequence, write_csv, write_pgm, write_ppm,
                    write_rect_file)
from .synth import SequenceSpec, generate_synthetic_sequence
from .tracker import (FrameDiagnostics, ModelWeights, Tracker, TrackerConfig,
                      TrackerState, build_model, decode_search,
                      encode_template, extract_features, grid_pad_mask,
                      load_model, save_model, track_sequence)
from .train import (Adam, TrainSettings, forward_pair, pair_loss,
                    sample_training_pair, train_toy)

__all__ = [
    "Adam", "BackboneWeights", "CropResult", "Frame", "FrameDiagnostics",
    "ModelWeights", "SequenceSpec", "Tracker", "TrackerConfig", "TrackerState",
    "TrackingMetrics", "TrainSettings", "backbone_forward", "build_model",
    "crop_search", "crop_template", "decode_search", "encode_template",
    "evaluate", "extract_features", "forward_pair",
    "generate_synthetic_sequence", "grid_pad_mask", "image_to_patch",
    "init_backbone", "iou", "load_model", "load_sequence", "pad_to_multiple",
    "pair_loss", "patch_to_image",
    "read_netpbm", "read_rect_file", "sample_training_pair", "save_model",
    "save_sequence", "track_sequence", "train_toy", "write_csv", "write_pgm",
    "write_ppm", "write_rect_file",
]
