"""Workload generation.

The paper evaluates on the KITTI (autonomous driving) and VisDrone2019
(aerial drone) datasets.  What matters to the DVFS control problem is not
pixel content but the *statistics of the scenes*: how large the images are
(stage-1 work) and how many candidate objects each frame contains (stage-2
work through the proposal count).  This package provides:

* :mod:`repro.workload.scene` — a temporally correlated scene-complexity
  process (consecutive frames of a driving or drone video look similar).
* :mod:`repro.workload.dataset` — dataset profiles for KITTI and
  VisDrone2019 plus a registry for custom profiles.
* :mod:`repro.workload.generator` — frame streams, including the
  domain-switch stream used for the paper's Fig. 7b.
"""

from repro.workload.dataset import (
    DatasetProfile,
    available_datasets,
    build_dataset,
    kitti,
    visdrone2019,
)
from repro.workload.fleet import FleetFrameBatch, FleetFrameStream, SessionNormals
from repro.workload.generator import DomainSwitchStream, Frame, FrameStream
from repro.workload.scene import SceneComplexityProcess

__all__ = [
    "DatasetProfile",
    "DomainSwitchStream",
    "FleetFrameBatch",
    "FleetFrameStream",
    "Frame",
    "FrameStream",
    "SceneComplexityProcess",
    "SessionNormals",
    "available_datasets",
    "build_dataset",
    "kitti",
    "visdrone2019",
]
